// geo_report: CLI over the bench-diff core (src/telemetry/bench_diff.hpp).
//
//   geo_report summary FILE...            print key scalars + attribution
//   geo_report diff BASE CURRENT [-v]     diff two BENCH_*.json files or
//                                         directories; exit 1 on regression
//
// BASE/CURRENT directories are matched by file name (every BENCH_*.json in
// BASE must exist in CURRENT; extras in CURRENT are reported, not gated).
// docs/OBSERVABILITY.md documents the baseline workflow.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/bench_diff.hpp"
#include "telemetry/json.hpp"

namespace {

namespace fs = std::filesystem;
using geo::telemetry::DiffResult;
using geo::telemetry::Json;

int usage() {
  std::fprintf(stderr,
               "usage: geo_report summary FILE...\n"
               "       geo_report diff BASE CURRENT [-v]\n"
               "BASE/CURRENT: BENCH_*.json files, or directories of them\n");
  return 2;
}

void print_scalars(const Json& doc, const std::string& prefix, int depth) {
  for (const auto& [key, value] : doc.members()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (value.is_number()) {
      std::printf("  %-44s %.6g\n", path.c_str(), value.number());
    } else if (value.is_bool()) {
      std::printf("  %-44s %s\n", path.c_str(),
                  value.boolean() ? "true" : "false");
    } else if (value.is_object() && depth < 1 && key != "metrics" &&
               key != "attr") {
      print_scalars(value, path, depth + 1);
    }
  }
}

int summarize_file(const std::string& path) {
  const auto doc = Json::parse_file(path);
  if (!doc.has_value()) {
    std::fprintf(stderr, "geo_report: cannot parse %s\n", path.c_str());
    return 1;
  }
  const Json* bench = doc->find("bench");
  std::printf("== %s (%s)\n", path.c_str(),
              bench != nullptr ? bench->str().c_str() : "?");
  print_scalars(*doc, "", 0);
  if (const Json* attr = doc->find("attr"); attr != nullptr) {
    std::printf("  attribution (cycles):\n");
    std::printf("    %-18s %14s %14s %14s %14s\n", "layer", "generation",
                "execution", "stall", "memory");
    auto row = [](const char* name, const Json& a) {
      auto field = [&a](const char* k) {
        const Json* v = a.find(k);
        return v != nullptr ? v->number() : 0.0;
      };
      std::printf("    %-18s %14.0f %14.0f %14.0f %14.0f\n", name,
                  field("generation_cycles"), field("execution_cycles"),
                  field("stall_cycles"), field("memory_cycles"));
    };
    if (const Json* layers = attr->find("layers"); layers != nullptr)
      for (const Json& layer : layers->elements()) {
        const Json* name = layer.find("layer");
        row(name != nullptr ? name->str().c_str() : "?", layer);
      }
    row("TOTAL", *attr);
  }
  return 0;
}

std::vector<fs::path> bench_files(const fs::path& p) {
  std::vector<fs::path> out;
  if (fs::is_directory(p)) {
    for (const auto& entry : fs::directory_iterator(p)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
          name.size() > 5 && entry.path().extension() == ".json")
        out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end());
  } else {
    out.push_back(p);
  }
  return out;
}

int diff_trees(const std::string& base_arg, const std::string& cur_arg,
               bool verbose) {
  const fs::path base_path(base_arg), cur_path(cur_arg);
  if (!fs::exists(base_path) || !fs::exists(cur_path)) {
    std::fprintf(stderr, "geo_report: missing input tree\n");
    return 2;
  }
  const auto rules = geo::telemetry::default_diff_rules();
  std::size_t total_regressions = 0, files = 0;
  for (const fs::path& base_file : bench_files(base_path)) {
    const fs::path cur_file = fs::is_directory(cur_path)
                                  ? cur_path / base_file.filename()
                                  : cur_path;
    std::printf("-- %s vs %s\n", base_file.string().c_str(),
                cur_file.string().c_str());
    if (!fs::exists(cur_file)) {
      std::printf("REGRESSION  missing from current tree\n");
      ++total_regressions;
      continue;
    }
    const auto base_doc = Json::parse_file(base_file.string());
    const auto cur_doc = Json::parse_file(cur_file.string());
    if (!base_doc.has_value() || !cur_doc.has_value()) {
      std::printf("REGRESSION  unparseable document\n");
      ++total_regressions;
      continue;
    }
    const DiffResult result =
        geo::telemetry::diff_documents(*base_doc, *cur_doc, rules);
    std::fputs(geo::telemetry::summarize_diff(result, verbose).c_str(),
               stdout);
    total_regressions += result.regressions;
    ++files;
  }
  std::printf("== %zu file(s): %zu regression(s)\n", files,
              total_regressions);
  return total_regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "summary") {
    if (argc < 3) return usage();
    int rc = 0;
    for (int i = 2; i < argc; ++i) rc |= summarize_file(argv[i]);
    return rc;
  }
  if (mode == "diff") {
    if (argc < 4) return usage();
    bool verbose = false;
    for (int i = 4; i < argc; ++i)
      if (std::strcmp(argv[i], "-v") == 0) verbose = true;
    return diff_trees(argv[2], argv[3], verbose);
  }
  return usage();
}
