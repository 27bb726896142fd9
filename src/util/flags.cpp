#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace agentloc::util {

namespace {

[[noreturn]] void bad_value(std::string_view name, const char* expected,
                            std::string_view text) {
  throw std::invalid_argument("--" + std::string(name) + ": expected " +
                              expected + ", got '" + std::string(text) + "'");
}

/// The whole of `text` as a number: trailing characters are an error.
template <typename T>
T parse_number(std::string_view name, const char* expected,
               std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) bad_value(name, expected, text);
  return value;
}

/// Call `item` on each non-empty comma-separated item of `text`.
template <typename Item>
void for_each_item(std::string_view text, Item item) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto end = comma == std::string_view::npos ? text.size() : comma;
    if (end > pos) item(text.substr(pos, end - pos));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
}

bool parse_bool(std::string_view name, std::string_view text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  bad_value(name, "a boolean", text);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

Flags::Flags(const std::vector<std::string>& args) { parse(args); }

void Flags::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      values_[body] = args[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::has(std::string_view name) const {
  declared_.emplace_back(name);
  return values_.find(name) != values_.end();
}

std::optional<std::string> Flags::get(std::string_view name) const {
  declared_.emplace_back(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_string(std::string_view name,
                              std::string fallback) const {
  return get(name).value_or(std::move(fallback));
}

std::int64_t Flags::get_int(std::string_view name,
                            std::int64_t fallback) const {
  const auto text = get(name);
  if (!text) return fallback;
  return parse_number<std::int64_t>(name, "an integer", *text);
}

std::int64_t Flags::get_int_in(std::string_view name, std::int64_t fallback,
                               std::int64_t min, std::int64_t max) const {
  const std::int64_t value = get_int(name, fallback);
  if (value < min || value > max) {
    const std::string range =
        max == std::numeric_limits<std::int64_t>::max()
            ? "an integer >= " + std::to_string(min)
            : "an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]";
    bad_value(name, range.c_str(), std::to_string(value));
  }
  return value;
}

double Flags::get_double(std::string_view name, double fallback) const {
  const auto text = get(name);
  if (!text) return fallback;
  return parse_number<double>(name, "a number", *text);
}

bool Flags::get_bool(std::string_view name, bool fallback) const {
  const auto text = get(name);
  if (!text) return fallback;
  return parse_bool(name, *text);
}

std::vector<std::int64_t> Flags::get_int_list(
    std::string_view name, std::vector<std::int64_t> fallback) const {
  const auto text = get(name);
  if (!text) return fallback;
  std::vector<std::int64_t> out;
  for_each_item(*text, [&](std::string_view item) {
    out.push_back(parse_number<std::int64_t>(
        name, "a comma-separated list of integers", item));
  });
  return out;
}

std::vector<double> Flags::get_double_list(
    std::string_view name, std::vector<double> fallback) const {
  const auto text = get(name);
  if (!text) return fallback;
  std::vector<double> out;
  for_each_item(*text, [&](std::string_view item) {
    out.push_back(parse_number<double>(
        name, "a comma-separated list of numbers", item));
  });
  return out;
}

std::vector<std::string> Flags::get_string_list(
    std::string_view name, std::vector<std::string> fallback) const {
  const auto text = get(name);
  if (!text) return fallback;
  std::vector<std::string> out;
  for_each_item(*text,
                [&](std::string_view item) { out.emplace_back(item); });
  return out;
}

void Flags::declare(std::string_view name) { declared_.emplace_back(name); }

void Flags::fail_on_unknown() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (std::find(declared_.begin(), declared_.end(), name) ==
        declared_.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
  }
}

}  // namespace agentloc::util
