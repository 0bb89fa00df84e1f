#include "benchlib/json_artifact.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "benchlib/harness.h"

#ifndef PHTREE_BUILD_TYPE
#define PHTREE_BUILD_TYPE "unknown"
#endif

// Configure-time sha of the checkout the binary was built from (top-level
// CMakeLists.txt). The runtime `git rev-parse` below is preferred — it
// reflects the checkout the bench actually runs in — but when that fails
// (bench run outside the repo, or git absent) this keeps the artifact rows
// attributable to a real commit instead of "unknown".
#ifndef PHTREE_GIT_SHA
#define PHTREE_GIT_SHA "unknown"
#endif

namespace phtree::bench {
namespace {

using Sections = std::vector<std::pair<std::string, std::string>>;

std::string GitShortSha() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) {
    return PHTREE_GIT_SHA;
  }
  char buf[64] = {0};
  std::string sha;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    sha = buf;
    sha.erase(sha.find_last_not_of("\r\n") + 1);
  }
  ::pclose(pipe);
  return sha.empty() ? PHTREE_GIT_SHA : sha;
}

std::string ThpMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  const size_t open = line.find('[');
  const size_t close = line.find(']', open);
  if (!in || open == std::string::npos || close == std::string::npos) {
    return "unavailable";
  }
  return line.substr(open + 1, close - open - 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string ObjectJson(const JsonFields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + fields[i].name + "\": " + fields[i].json;
  }
  return out + "}";
}

/// Index just past the JSON value starting at or after `i` (object,
/// array, string or scalar), skipping brackets inside string literals, or
/// npos when the value is cut short.
size_t SkipValue(const std::string& s, size_t i) {
  int depth = 0;
  for (i = s.find_first_not_of(" \t\r\n", i); i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      for (++i; i < s.size() && s[i] != '"'; ++i) {
        i += s[i] == '\\' ? 1 : 0;
      }
      if (i < s.size() && depth == 0) {
        return i + 1;
      }
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (depth == 0 &&
               std::string_view(",}] \t\r\n").find(c) != std::string::npos) {
      return i;  // end of a scalar
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return i + 1;
    }
  }
  return std::string::npos;
}

/// Reads the two outer levels of an artefact in the layout of the header:
/// the quoted "bench" name and each section's name and verbatim JSON text.
bool ParseArtifact(const std::string& s, std::string* bench, Sections* out) {
  size_t i = 0;
  const auto token = [&](char c) {
    i = s.find_first_not_of(" \t\r\n", i);
    return i < s.size() && s[i] == c ? (++i, true) : false;
  };
  const auto value = [&](std::string* text) {
    i = s.find_first_not_of(" \t\r\n", i);
    const size_t end = SkipValue(s, i);
    if (end == std::string::npos || end == i) {
      return false;
    }
    *text = s.substr(i, end - i);
    i = end;
    return true;
  };
  std::string key;
  if (!token('{') || !value(&key) || key != "\"bench\"" || !token(':') ||
      !value(bench) || !token(',') || !value(&key) ||
      key != "\"sections\"" || !token(':') || !token('{')) {
    return false;
  }
  while (!token('}')) {
    std::string name;
    std::string body;
    if ((!out->empty() && !token(',')) || !value(&name) || name[0] != '"' ||
        !token(':') || !value(&body)) {
      return false;
    }
    out->emplace_back(name.substr(1, name.size() - 2), body);
  }
  return token('}') && s.find_first_not_of(" \t\r\n", i) == std::string::npos;
}

}  // namespace

RunMetadata CollectRunMetadata() {
  return {std::thread::hardware_concurrency(), PHTREE_BUILD_TYPE,
          GitShortSha(), BenchScale(), ThpMode()};
}

std::string MetadataJson(const RunMetadata& m) {
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", m.bench_scale);
  return ObjectJson({JsonInt("cores", m.cores),
                     JsonStr("build_type", m.build_type),
                     JsonStr("git_sha", m.git_sha), {"scale", scale},
                     JsonStr("thp", m.thp)});
}

JsonField JsonStr(const std::string& name, const std::string& value) {
  return {name, '"' + JsonEscape(value) + '"'};
}

JsonField JsonInt(const std::string& name, uint64_t value) {
  return {name, std::to_string(value)};
}

JsonField JsonNum(const std::string& name, double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return {name, buf};
}

JsonField JsonBool(const std::string& name, bool value) {
  return {name, value ? "true" : "false"};
}

JsonField JsonObj(const std::string& name, const JsonFields& fields) {
  return {name, ObjectJson(fields)};
}

bool WriteBenchSection(const std::string& path, const std::string& artifact,
                       const std::string& name, const RunMetadata& meta,
                       const BenchSection& section) {
  std::string body = "{\n  \"figure\": \"" + JsonEscape(section.figure) +
                     "\",\n  \"metadata\": " + MetadataJson(meta) + ",\n";
  for (const JsonField& f : section.extra) {
    body += "  \"" + f.name + "\": " + f.json + ",\n";
  }
  body += "  \"rows\": [\n";
  for (size_t i = 0; i < section.rows.size(); ++i) {
    body += "    " + ObjectJson(section.rows[i]) +
            (i + 1 < section.rows.size() ? ",\n" : "\n");
  }
  body += "  ]";
  if (!section.derived.empty()) {
    body += ",\n  \"derived\": " + ObjectJson(section.derived);
  }
  return UpdateJsonArtifact(path, artifact, name, body + "\n}");
}

bool UpdateJsonArtifact(const std::string& path, const std::string& artifact,
                        const std::string& section,
                        const std::string& section_body) {
  Sections sections;
  std::error_code ec;
  if (std::filesystem::exists(path, ec) || ec) {
    std::ifstream in(path);
    std::ostringstream existing;
    existing << in.rdbuf();
    std::string bench;
    if (!in || !ParseArtifact(existing.str(), &bench, &sections) ||
        bench != "\"" + artifact + "\"") {
      std::fprintf(stderr,
                   "error: %s is not a readable \"%s\" bench artefact; "
                   "left untouched\n",
                   path.c_str(), artifact.c_str());
      return false;
    }
  }
  auto it = std::find_if(sections.begin(), sections.end(),
                         [&](const auto& s) { return s.first == section; });
  if (it == sections.end()) {  // a first run goes in front
    it = sections.insert(sections.begin(), {section, ""});
  }
  it->second = section_body;
  std::ofstream out(path, std::ios::trunc);
  out << "{\n\"bench\": \"" << artifact << "\",\n\"sections\": {";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << (i > 0 ? ",\n\"" : "\n\"") << sections[i].first
        << "\": " << sections[i].second;
  }
  out << "\n}\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace phtree::bench
