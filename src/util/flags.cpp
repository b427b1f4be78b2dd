#include "util/flags.h"

#include <sstream>

#include "util/strings.h"

namespace ddos::util {

FlagParser::FlagParser(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagParser::add_string(const std::string& name,
                            std::string default_value, std::string help) {
  flags_[name] = Flag{Type::String, default_value, std::move(default_value),
                      std::move(help)};
}

void FlagParser::add_uint(const std::string& name, std::uint64_t default_value,
                          std::string help, std::uint64_t min_value,
                          std::uint64_t max_value) {
  const std::string v = std::to_string(default_value);
  Flag flag{Type::Uint, v, v, std::move(help)};
  flag.min_value = min_value;
  flag.max_value = max_value;
  flags_[name] = std::move(flag);
}

void FlagParser::add_double(const std::string& name, double default_value,
                            std::string help, double min_value,
                            double max_value) {
  const std::string v = format_fixed(default_value, 6);
  Flag flag{Type::Double, v, v, std::move(help)};
  flag.min_double = min_value;
  flag.max_double = max_value;
  flags_[name] = std::move(flag);
}

void FlagParser::add_bool(const std::string& name, std::string help) {
  flags_[name] = Flag{Type::Bool, "false", "false", std::move(help)};
}

std::string FlagParser::unknown_flag_error(const std::string& name) const {
  std::string msg = "unknown flag --" + name + "; valid flags:";
  for (const auto& [known, flag] : flags_) {
    msg += " --" + known;
  }
  return msg;
}

bool FlagParser::set_value(const std::string& name, const std::string& value) {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    error_ = unknown_flag_error(name);
    return false;
  }
  switch (it->second.type) {
    case Type::Uint: {
      std::uint64_t u = 0;
      if (!parse_u64(value, u) || u < it->second.min_value ||
          u > it->second.max_value) {
        std::string range = "[" + std::to_string(it->second.min_value) + ", ";
        range += it->second.max_value == UINT64_MAX
                     ? "inf)"
                     : std::to_string(it->second.max_value) + "]";
        error_ = "flag --" + name + " expects an unsigned integer in " +
                 range + ", got '" + value + "'";
        return false;
      }
      break;
    }
    case Type::Double: {
      double d = 0.0;
      if (!parse_double(value, d) || d < it->second.min_double ||
          d > it->second.max_double) {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        std::string expected = "a number";
        if (it->second.min_double > -kInf || it->second.max_double < kInf) {
          expected += " in ";
          expected += it->second.min_double > -kInf
                          ? "[" + format_fixed(it->second.min_double, 6)
                          : "(-inf";
          expected += ", ";
          expected += it->second.max_double < kInf
                          ? format_fixed(it->second.max_double, 6) + "]"
                          : "inf)";
        }
        error_ = "flag --" + name + " expects " + expected + ", got '" +
                 value + "'";
        return false;
      }
      break;
    }
    case Type::Bool:
      if (!iequals(value, "true") && !iequals(value, "false")) {
        error_ = "flag --" + name + " expects true/false, got '" + value + "'";
        return false;
      }
      break;
    case Type::String:
      break;
  }
  it->second.value = value;
  return true;
}

bool FlagParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      if (!set_value(std::string(arg.substr(0, eq)),
                     std::string(arg.substr(eq + 1)))) {
        return false;
      }
      continue;
    }
    const std::string name(arg);
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = unknown_flag_error(name);
      return false;
    }
    if (it->second.type == Type::Bool) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= args.size()) {
      error_ = "flag --" + name + " requires a value";
      return false;
    }
    if (!set_value(name, args[++i])) return false;
  }
  return true;
}

bool FlagParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

std::string FlagParser::get_string(const std::string& name) const {
  return flags_.at(name).value;
}

std::uint64_t FlagParser::get_uint(const std::string& name) const {
  std::uint64_t u = 0;
  parse_u64(flags_.at(name).value, u);
  return u;
}

double FlagParser::get_double(const std::string& name) const {
  double d = 0.0;
  parse_double(flags_.at(name).value, d);
  return d;
}

bool FlagParser::get_bool(const std::string& name) const {
  return iequals(flags_.at(name).value, "true");
}

std::string FlagParser::usage() const {
  std::ostringstream out;
  out << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    if (flag.type != Type::Bool) out << " <" << flag.default_value << ">";
    out << "\n      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace ddos::util
