// The `ethsm` command-line interface.
//
//   ethsm list
//   ethsm print <preset> [--quick] [--set key=value ...]
//   ethsm run <preset> | --spec FILE
//             [--quick] [--set key=value ...]
//             [--format table|csv|json] [--out FILE]
//             [--checkpoint-dir DIR | --resume] [--shard k/N]
//             [--max-new-jobs N]
//   ethsm run --all | --study FILE        (study runs: results tree + manifest;
//             [--quick] [--set ...]        --all regenerates every preset
//             [--out DIR] [checkpoint/shard/budget flags as above]
//   ethsm expand <study file> | --all [--quick] [--set key=value ...]
//   ethsm checkpoint-stats <dir> [--prune] [--keep-study FILE ...]
//                                [--set key=value ...]
//                                         (--keep-study adds a custom study's
//                                          expansion to the GC keep-set; pass
//                                          the run's --set overrides too, as
//                                          they change sweep fingerprints)
//
// Environment: ETHSM_THREADS sets the worker-thread count. Exit codes: 0
// success, 1 runtime failure, 2 usage.

#ifndef ETHSM_API_CLI_H
#define ETHSM_API_CLI_H

namespace ethsm::api {

/// Entry point of the `ethsm` binary.
[[nodiscard]] int cli_main(int argc, char** argv);

}  // namespace ethsm::api

#endif  // ETHSM_API_CLI_H
