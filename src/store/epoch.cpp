#include "store/epoch.h"

namespace ddos::store {

U64Appender::U64Appender(Encoding encoding)
    : BlockAppender(ColumnType::U64, encoding) {
  if (encoding == Encoding::StringBlock)
    throw StoreError("u64 column cannot use string-block encoding");
}

}  // namespace ddos::store
