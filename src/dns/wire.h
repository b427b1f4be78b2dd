// DNS wire-format name codec (RFC 1035 §4.1.4): length-prefixed labels
// on encode, and robust (bounds- and loop-checked) compression-pointer
// decoding, where most real-world DNS parser bugs live. The analysis
// pipeline works on measurement records and never builds full messages.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"

namespace ddos::dns {

/// Encode a name as a sequence of length-prefixed labels + root.
/// Returns false (and leaves `out` untouched) for invalid names.
bool encode_name(const DomainName& name, std::vector<std::uint8_t>& out);

/// Decode a (possibly compressed) name starting at `offset` within the
/// whole message. On success returns the name and sets `next` to the
/// offset just past the name's in-place bytes. Rejects pointer loops,
/// forward pointers, out-of-bounds reads and over-long names.
std::optional<DomainName> decode_name(std::span<const std::uint8_t> message,
                                      std::size_t offset, std::size_t& next);

}  // namespace ddos::dns
