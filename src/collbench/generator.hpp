// Dataset generation with on-disk caching.
//
// Generating a dataset runs the DES once per (uid, nodes, ppn, msize)
// configuration and draws the budgeted number of noisy observations per
// run. Because the full Table II grid amounts to billions of simulated
// messages, generated datasets are cached as CSV under a data directory
// and reloaded by the benches.
#pragma once

#include <filesystem>
#include <functional>
#include <optional>

#include "collbench/dataset.hpp"
#include "collbench/specs.hpp"

namespace mpicp::bench {

/// Progress callback: (configurations done, configurations total).
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Generate the dataset from scratch. The (nodes, ppn, config) tasks run
/// on support::parallel_for, each with its own network and its own
/// observation stream seeded from (spec.seed, uid, nodes, ppn); the
/// records are merged in the serial loop order, so the dataset is
/// byte-identical at every thread count. `progress` is called on the
/// calling thread only, with non-decreasing counts, ending at
/// (total, total).
Dataset generate_dataset(const DatasetSpec& spec,
                         const ProgressFn& progress = nullptr);

/// Cache-aware entry point: load `<data_dir>/<name>.csv` when present,
/// otherwise generate and save it.
Dataset load_or_generate(const DatasetSpec& spec,
                         const std::filesystem::path& data_dir,
                         const ProgressFn& progress = nullptr);

/// The data directory used by benches/examples: $MPICP_DATA_DIR if set,
/// else "data" under the current working directory.
std::filesystem::path default_data_dir();

}  // namespace mpicp::bench
