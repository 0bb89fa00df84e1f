// Geo-index example: the paper's motivating GIS scenario (Sect. 1 /
// Sect. 4.2). Loads a TIGER/Line-like dataset of map-feature vertices for
// the mainland USA, then answers the kinds of queries a geo-information
// system issues: bounding-box searches ("all features near Denver"),
// point-membership tests, and incremental updates — all from one structure
// that is simultaneously the primary storage (Sect. 1: "primary storage
// layout for databases").
#include <cstdio>

#include "datasets/datasets.h"
#include "phtree/cursor.h"
#include "phtree/phtree_d.h"

namespace {

struct City {
  const char* name;
  double lon, lat;
};

constexpr City kCities[] = {
    {"Denver", -104.99, 39.74},
    {"Chicago", -87.63, 41.88},
    {"Austin", -97.74, 30.27},
    {"Seattle", -122.33, 47.61},
};

}  // namespace

int main() {
  // A synthetic stand-in for the paper's 18.4M-point TIGER/Line extract
  // (see DESIGN.md, substitutions).
  const phtree::Dataset tiger = phtree::GenerateTigerLike(300000, 2026);
  std::printf("loaded %zu unique map vertices\n", tiger.n());

  phtree::PhTreeD index(/*dim=*/2);
  for (size_t i = 0; i < tiger.n(); ++i) {
    index.Insert(tiger.point(i), /*feature id=*/i);
  }

  const auto stats = index.ComputeStats();
  std::printf("index: %zu entries, %zu nodes (%zu BHC / %zu LHC), "
              "%.1f bytes/entry, max depth %zu\n",
              stats.n_entries, stats.n_nodes, stats.n_bhc_nodes,
              stats.n_lhc_nodes, stats.BytesPerEntry(), stats.max_depth);

  // Bounding-box queries: a 1x1 degree window around each city.
  for (const auto& city : kCities) {
    const phtree::PhKeyD lo{city.lon - 0.5, city.lat - 0.5};
    const phtree::PhKeyD hi{city.lon + 0.5, city.lat + 0.5};
    const size_t count = index.CountWindow(lo, hi);
    std::printf("features within 0.5 deg of %-8s: %zu\n", city.name, count);
  }

  // Point membership + incremental update: move a vertex.
  const auto first = tiger.point(0);
  if (index.Contains(first)) {
    index.Erase(first);
    const phtree::PhKeyD moved{first[0] + 1e-6, first[1]};
    index.Insert(moved, 0);
    std::printf("moved vertex 0 by 1e-6 deg east (2 nodes touched per "
                "update, Sect. 3.6)\n");
  }

  // Lazy iteration over a window (no materialisation).
  size_t n = 0;
  double mean_lon = 0;
  for (phtree::TreeCursor it(
           index.tree(), phtree::EncodeKeyD(phtree::PhKeyD{-110.0, 35.0}),
           phtree::EncodeKeyD(phtree::PhKeyD{-100.0, 45.0}));
       it.Valid(); it.Next()) {
    mean_lon += phtree::SortableBitsToDouble(it.key()[0]);
    ++n;
  }
  if (n > 0) {
    std::printf("central mountain window: %zu vertices, mean lon %.3f\n", n,
                mean_lon / static_cast<double>(n));
  }
  return 0;
}
