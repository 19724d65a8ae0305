#include "telemetry/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace geo::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

// ---------------------------------------------------------------------------
// Recursive-descent parser (inverse of dump); also the validity check.

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  int depth = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }
  bool eat(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) != word) return false;
    i += word.size();
    return true;
  }
  bool hex4(std::uint32_t& out) {
    if (i + 4 > s.size()) return false;
    out = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s[i + static_cast<std::size_t>(k)];
      std::uint32_t d;
      if (c >= '0' && c <= '9') d = static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') d = static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') d = static_cast<std::uint32_t>(c - 'A' + 10);
      else return false;
      out = (out << 4) | d;
    }
    i += 4;
    return true;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c == '\\') {
        ++i;
        if (i >= s.size()) return false;
        const char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp;
            if (!hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF && i + 1 < s.size() &&
                s[i] == '\\' && s[i + 1] == 'u') {
              i += 2;
              std::uint32_t lo;
              if (!hex4(lo)) return false;
              if (lo >= 0xDC00 && lo <= 0xDFFF)
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              else
                return false;
            }
            append_utf8(out, cp);
            break;
          }
          default: return false;
        }
        continue;
      }
      out += c;
      ++i;
    }
    return false;
  }
  bool number(Json& out) {
    const std::size_t start = i;
    bool integral = true;
    if (eat('-')) {}
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == start || (i == start + 1 && s[start] == '-')) return false;
    if (i < s.size() && s[i] == '.') {
      integral = false;
      ++i;
      const std::size_t frac = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
      if (i == frac) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      integral = false;
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      const std::size_t ex = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
      if (i == ex) return false;
    }
    const std::string_view tok = s.substr(start, i - start);
    if (integral) {
      std::int64_t v = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc{} && p == tok.data() + tok.size()) {
        out = Json(v);
        return true;
      }
      // Falls through for magnitudes beyond int64: load as double.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc{} || p != tok.data() + tok.size()) return false;
    out = Json(d);
    return true;
  }
  bool value(Json& out) {
    if (++depth > 256) return false;
    skip_ws();
    bool ok = false;
    if (i >= s.size()) {
      ok = false;
    } else if (s[i] == '{') {
      ++i;
      out = Json::object();
      skip_ws();
      if (eat('}')) {
        ok = true;
      } else {
        ok = true;
        while (ok) {
          skip_ws();
          std::string key;
          ok = string(key);
          if (!ok) break;
          skip_ws();
          Json child;
          ok = eat(':') && value(child);
          if (!ok) break;
          out.set(std::move(key), std::move(child));
          skip_ws();
          if (eat(',')) continue;
          ok = eat('}');
          break;
        }
      }
    } else if (s[i] == '[') {
      ++i;
      out = Json::array();
      skip_ws();
      if (eat(']')) {
        ok = true;
      } else {
        ok = true;
        while (ok) {
          Json child;
          ok = value(child);
          if (!ok) break;
          out.push(std::move(child));
          skip_ws();
          if (eat(',')) continue;
          ok = eat(']');
          break;
        }
      }
    } else if (s[i] == '"') {
      std::string str;
      ok = string(str);
      if (ok) out = Json(std::move(str));
    } else if (s[i] == 't') {
      ok = literal("true");
      if (ok) out = Json(true);
    } else if (s[i] == 'f') {
      ok = literal("false");
      if (ok) out = Json(false);
    } else if (s[i] == 'n') {
      ok = literal("null");
      if (ok) out = Json();
    } else {
      ok = number(out);
    }
    --depth;
    return ok;
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Json out;
  if (!p.value(out)) return std::nullopt;
  p.skip_ws();
  if (p.i != text.size()) return std::nullopt;
  return out;
}

bool json_valid(std::string_view text) {
  return Json::parse(text).has_value();
}

std::optional<Json> Json::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse(text);
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Json value tree.

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::raw(std::string text) {
  Json j;
  j.kind_ = Kind::kRaw;
  j.str_ = std::move(text);
  return j;
}

Json& Json::set(std::string key, Json value) {
  kind_ = Kind::kObject;  // setting a key on a fresh value makes it an object
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kObject) return object_.size();
  if (kind_ == Kind::kArray) return array_.size();
  return 0;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)),
                               ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";

  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += format_double(num_); break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kString:
      out += '"';
      out += json_escape(str_);
      out += '"';
      break;
    case Kind::kRaw:
      out += json_valid(str_) ? str_ : "null";
      break;
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t k = 0; k < object_.size(); ++k) {
        out += pad;
        out += '"';
        out += json_escape(object_[k].first);
        out += '"';
        out += colon;
        object_[k].second.dump_to(out, indent, depth + 1);
        if (k + 1 < object_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t k = 0; k < array_.size(); ++k) {
        out += pad;
        array_[k].dump_to(out, indent, depth + 1);
        if (k + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool Json::write_file(const std::string& path, int indent) const {
  std::ofstream os(path);
  if (!os) return false;
  os << dump(indent) << '\n';
  return static_cast<bool>(os);
}

}  // namespace geo::telemetry
