#include "store/epoch.h"

namespace ddos::store {

BlockAppender::BlockAppender(ColumnType type, Encoding encoding)
    : type_(type), encoding_(encoding) {
  if (!ColumnTypes::admits(type, encoding)) {
    throw StoreError(std::string(to_string(type)) +
                     " column cannot use encoding " +
                     std::to_string(static_cast<int>(encoding)));
  }
}

}  // namespace ddos::store
