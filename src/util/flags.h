// Minimal command-line flag parser for the CLI tool and examples.
// Supports --name value, --name=value, boolean --name, positional
// arguments, and generated help text. No external dependencies.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ddos::util {

class FlagParser {
 public:
  explicit FlagParser(std::string program_description);

  /// Register flags with defaults; `help` appears in usage output.
  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  /// Unsigned integer with inclusive range validation: values outside
  /// [min_value, max_value], and anything that is not a plain decimal
  /// integer ("-5", "2000.9", "1e3"), fail the parse with a message naming
  /// the accepted range. Values are held exactly across the full u64 range.
  void add_uint(const std::string& name, std::uint64_t default_value,
                std::string help, std::uint64_t min_value = 0,
                std::uint64_t max_value = UINT64_MAX);
  /// Double with optional inclusive range validation, matching add_uint's
  /// behaviour: out-of-range or non-numeric values fail the parse with a
  /// message naming the accepted range. Works for both `--name value` and
  /// `--name=value` spellings (all flag types accept both).
  void add_double(const std::string& name, double default_value,
                  std::string help,
                  double min_value = -std::numeric_limits<double>::infinity(),
                  double max_value = std::numeric_limits<double>::infinity());
  void add_bool(const std::string& name, std::string help);

  /// Parse argv (excluding argv[0]). Returns false — with `error()` set —
  /// on unknown flags or unparseable values.
  bool parse(int argc, const char* const* argv);
  bool parse(const std::vector<std::string>& args);

  std::string get_string(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  /// "--help" requested during parse.
  bool help_requested() const { return help_requested_; }
  std::string usage() const;

 private:
  enum class Type { String, Uint, Double, Bool };
  struct Flag {
    Type type;
    std::string value;  // textual; parsed on get
    std::string default_value;
    std::string help;
    std::uint64_t min_value = 0;           // Uint only
    std::uint64_t max_value = UINT64_MAX;  // Uint only
    double min_double = -std::numeric_limits<double>::infinity();  // Double
    double max_double = std::numeric_limits<double>::infinity();   // Double
  };

  bool set_value(const std::string& name, const std::string& value);
  /// "unknown flag --x; valid flags: --a --b ..." — typos fail loudly with
  /// the full registered-flag list.
  std::string unknown_flag_error(const std::string& name) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_requested_ = false;
};

}  // namespace ddos::util
