// The bench-artefact pipeline. Several bench binaries contribute to ONE
// machine-readable file (e.g. fig08 and fig09 both land in
// BENCH_queries.json), and every artefact has one layout:
//
//   {"bench": "<artifact>", "sections": {"<name>": {
//      "figure": "...", "metadata": {cores, build_type, git_sha, scale, thp},
//      <extra fields>, "rows": [{...}, ...], "derived": {...}}, ...}}
//
// Each binary owns its sections and writes each with WriteBenchSection;
// "derived" appears only in sections that have one. tools/check_bench.py
// checks the committed artefacts against this layout and their gates.
#ifndef PHTREE_BENCHLIB_JSON_ARTIFACT_H_
#define PHTREE_BENCHLIB_JSON_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace phtree::bench {

/// The stamp on every section, so checked-in results stay comparable
/// across machines and revisions.
struct RunMetadata {
  unsigned cores = 0;        ///< std::thread::hardware_concurrency()
  std::string build_type;    ///< CMAKE_BUILD_TYPE the binary was built with
  std::string git_sha;       ///< short HEAD sha, "unknown" outside a repo
  double bench_scale = 1.0;  ///< PHTREE_BENCH_SCALE in effect
  /// The host's transparent-huge-page mode ("always", "madvise", "never"),
  /// or "unavailable": large trees map their arena chunks with huge pages
  /// only where it is not "never", so large-n rows depend on it.
  std::string thp = "unavailable";
};

/// Gathers the metadata for this process/build. The git sha is read by
/// running `git rev-parse` once (cwd-based); failures degrade to the
/// configure-time sha, then "unknown". The THP mode is the bracketed word
/// of /sys/kernel/mm/transparent_hugepage/enabled, which is only read.
RunMetadata CollectRunMetadata();

/// The stamp as a JSON object string, e.g.
/// {"cores": 8, "build_type": "Release", "git_sha": "42086b3", "scale": 1,
///  "thp": "madvise"}
std::string MetadataJson(const RunMetadata& m);

/// One named JSON field; `json` is the value's JSON text.
struct JsonField {
  std::string name;
  std::string json;
};
using JsonFields = std::vector<JsonField>;

JsonField JsonStr(const std::string& name, const std::string& value);
JsonField JsonInt(const std::string& name, uint64_t value);
/// `value` with exactly `decimals` digits after the point.
JsonField JsonNum(const std::string& name, double value, int decimals);
JsonField JsonBool(const std::string& name, bool value);
JsonField JsonObj(const std::string& name, const JsonFields& fields);

struct BenchSection {
  std::string figure;               ///< the figure or table it measures
  JsonFields extra = {};            ///< fields between metadata and rows
  std::vector<JsonFields> rows = {};
  JsonFields derived = {};          ///< written only when non-empty
};

/// Writes `section` as "sections"/`name` of the `artifact` file at
/// `path`, stamped with `meta`, through UpdateJsonArtifact.
bool WriteBenchSection(const std::string& path, const std::string& artifact,
                       const std::string& name, const RunMetadata& meta,
                       const BenchSection& section);

/// Splices `section_body` (a JSON value) into `path` as "sections"/
/// `section`, replacing an earlier run of it and keeping every other
/// section. Creates a missing file; leaves a file it cannot read, or that
/// is no `artifact` file in the layout above, untouched. Then, or when the
/// write fails, it prints why and returns false.
bool UpdateJsonArtifact(const std::string& path, const std::string& artifact,
                        const std::string& section,
                        const std::string& section_body);

}  // namespace phtree::bench

#endif  // PHTREE_BENCHLIB_JSON_ARTIFACT_H_
