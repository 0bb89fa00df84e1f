// Quickstart: the 60-second tour of the PH-tree API.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "phtree/cursor.h"     // lazy window-query cursor
#include "phtree/phtree.h"     // integer keys
#include "phtree/phtree_d.h"   // double keys (order-preserving conversion)

int main() {
  // --- Integer keys -------------------------------------------------------
  // A PH-tree indexes k-dimensional points of 64-bit values and maps each
  // point to one 64-bit payload. Dimensionality is fixed per tree.
  phtree::PhTree tree(/*dim=*/2);

  tree.Insert(phtree::PhKey{1, 10}, 100);
  tree.Insert(phtree::PhKey{2, 20}, 200);
  tree.Insert(phtree::PhKey{3, 30}, 300);

  if (const auto value = tree.Find(phtree::PhKey{2, 20})) {
    std::printf("found (2,20) -> %llu\n",
                static_cast<unsigned long long>(*value));
  }

  // Window query: all points with 1 <= x <= 2 and 0 <= y <= 25.
  for (phtree::TreeCursor it(tree, phtree::PhKey{1, 0}, phtree::PhKey{2, 25});
       it.Valid(); it.Next()) {
    std::printf("in window: (%llu, %llu) -> %llu\n",
                static_cast<unsigned long long>(it.key()[0]),
                static_cast<unsigned long long>(it.key()[1]),
                static_cast<unsigned long long>(it.value()));
  }

  tree.Erase(phtree::PhKey{1, 10});
  std::printf("after erase: %zu entries\n", tree.size());

  // --- Floating-point keys -------------------------------------------------
  // PhTreeD stores doubles through the paper's order-preserving conversion
  // (Sect. 3.3); all queries behave exactly as on the original values.
  phtree::PhTreeD dtree(/*dim=*/3);
  dtree.Insert(phtree::PhKeyD{0.1, 0.2, 0.3}, 1);
  dtree.Insert(phtree::PhKeyD{-5.0, 2.5, 0.0}, 2);

  const auto hits =
      dtree.QueryWindow(phtree::PhKeyD{-10.0, 0.0, -1.0},
                        phtree::PhKeyD{1.0, 3.0, 1.0});
  std::printf("double window hits: %zu\n", hits.size());

  // Structural statistics (node counts, memory bytes; paper Sect. 4.3.5).
  const auto stats = dtree.ComputeStats();
  std::printf("tree: %zu entries, %zu nodes, %.1f bytes/entry\n",
              stats.n_entries, stats.n_nodes, stats.BytesPerEntry());
  return 0;
}
