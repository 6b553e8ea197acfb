#include "net/filter_config.h"

namespace ps2 {

Result<FilterConfig> FilterConfig::Parse(const std::string& text) {
  FilterConfig config;
  if (text.empty() || text == "off" || text == "none") return config;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::string token = text.substr(start, comma - start);
    if (token == "keycache") {
      config.bits |= kFilterKeyCache;
    } else if (token == "delta") {
      config.bits |= kFilterDelta;
    } else if (token == "compress") {
      config.bits |= kFilterCompress;
    } else if (token == "all") {
      config.bits |= kFilterAll;
    } else if (!token.empty()) {
      return Status::InvalidArgument("unknown filter: " + token);
    }
    start = comma + 1;
  }
  return config;
}

std::string FilterConfig::ToString() const {
  if (bits == 0) return "off";
  std::string out;
  auto append = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (bits & kFilterKeyCache) append("keycache");
  if (bits & kFilterDelta) append("delta");
  if (bits & kFilterCompress) append("compress");
  return out;
}

}  // namespace ps2
