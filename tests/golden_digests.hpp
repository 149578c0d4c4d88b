// Golden digests over the inputs in golden_cases.hpp (digest definitions in
// trace_digest.hpp).
//
// Generated at commit 31dbc30, when the tree still carried the engine's and
// the index's original implementations:
//   * kEngineDigests: trace_digest of simulate_reference() (virtual hook
//     dispatch, one shared trace vector restored by a stable sort, a ready
//     heap, hash-map advance state, linear waiter scans) for every engine
//     case; simulate() produced the same digest and the same events on every
//     case;
//   * kIndexDigests: index_digest of TraceIndex(ReferenceBuild) (the
//     original single-pass, map-based builder) for every index trace; the
//     batch TraceIndex build produced the same digest on every trace.
//
// Generated at commit 11a332c, before the batch and streamed reconstructors
// shared one retiming body:
//   * kApproxDigests: approx_digest of the batch event_based_approximation()
//     of every index trace, with the overheads and options of
//     approx_cases(); the streamed reconstruction digested the same on every
//     trace.
//
// Generated at commit 7742cde, before the index resolved each awaitE's
// partners and the analyses stopped searching for them:
//   * kAnalysesDigests: analyses_digest (analyses_digest.hpp) of every
//     partner case: the approximation cases, then the degenerate traces.
//     "duplicate-await-begin" was regenerated once the batch reconstructor
//     paired each awaitE with its own awaitB (the latest before it on its
//     processor) instead of the key's last awaitB on that processor, which
//     on this trace comes after the first awaitE and was read unresolved.
//     "repeated-await-end" was added once the batch reconstructor consumed
//     the awaitB it pairs, as the streamed one does: its second awaitE of a
//     key falls back to the time-based rule in both.
// A digest that stops matching means the output changed: regenerate only
// for a deliberate, explained change of the simulated, indexed or
// reconstructed result.
#pragma once

#include <cstdint>

namespace perturb::golden {

struct Digest {
  const char* label;
  std::uint64_t value;
};

inline constexpr Digest kEngineDigests[] = {
    {"null/con/lfk1", 0x24644f8f64359064ULL},
    {"null/seq/lfk1", 0xdcdb37e9e97f7626ULL},
    {"null/con/lfk3", 0x6c43ebd096e9a40aULL},
    {"null/seq/lfk3", 0xd8df4d0d09c15431ULL},
    {"null/con/lfk4", 0x6918fd18d7a77f51ULL},
    {"null/seq/lfk4", 0xa74bb48dcf0ada1aULL},
    {"null/con/lfk7", 0xf45764629c12a3c0ULL},
    {"null/seq/lfk7", 0xf527d18a9436d448ULL},
    {"null/con/lfk12", 0xceda1d44be7fe5c4ULL},
    {"null/seq/lfk12", 0xb145fb9554b4a99cULL},
    {"null/con/lfk17", 0x5ef4a040d9166c76ULL},
    {"null/seq/lfk17", 0x64eca3f8bab3243bULL},
    {"null/con/lfk22", 0xcda495366f2b941dULL},
    {"null/seq/lfk22", 0xee27a088033f5961ULL},
    {"null/vec/lfk1", 0x3d78de49b44951b4ULL},
    {"null/vec/lfk7", 0x27aced940e97a09cULL},
    {"null/vec/lfk12", 0x80ed76047ec8cb78ULL},
    {"null/vec/lfk22", 0x8563d175561878d7ULL},
    {"stmts/lfk3", 0xa967262e28b44c48ULL},
    {"full/lfk3", 0xa90b67ebac2c3001ULL},
    {"sync/lfk3", 0x18c281c38e26f656ULL},
    {"stmts/lfk4", 0x745790a76daf4069ULL},
    {"full/lfk4", 0x17488aa9081feda6ULL},
    {"sync/lfk4", 0xcb143878fba687a4ULL},
    {"stmts/lfk17", 0x582efee4f6d2b4e4ULL},
    {"full/lfk17", 0xf07142b32a7f9991ULL},
    {"sync/lfk17", 0x55a662e7a436e4d7ULL},
    {"sched0/lfk3", 0x02719eb17a65b8eeULL},
    {"sched1/lfk3", 0x6a195d83ee1aec0bULL},
    {"sched2/lfk3", 0xc4c54444959c4bb4ULL},
    {"sched0/lfk17", 0x46f94d200515b584ULL},
    {"sched1/lfk17", 0x8e11e12505e60071ULL},
    {"sched2/lfk17", 0xd74e535a2a12b7feULL},
    {"site-filter", 0x5c436cb830160c34ULL},
    {"no-stmt-exit", 0xecceda4526f7b55eULL},
    {"custom/lfk3", 0x26264d8768431163ULL},
    {"custom/lfk17", 0x8132aec8724df197ULL},
    {"waiters/null/sched0", 0xb4cbb5cc72a211d4ULL},
    {"waiters/full/sched0", 0x0878d3bc457f9cabULL},
    {"waiters/null/sched2", 0x6899fa6dca670442ULL},
    {"waiters/full/sched2", 0xb8f04124fb37ffe5ULL},
    {"fuzz-null/1", 0x8d33f4fd4d4f6e6fULL},
    {"fuzz-full/1", 0x1e7d3019ad68e328ULL},
    {"fuzz-null/2", 0xa85e78270040d6f4ULL},
    {"fuzz-full/2", 0x982a083f425ec9a3ULL},
    {"fuzz-null/3", 0xe4dc0eefee723a41ULL},
    {"fuzz-full/3", 0x75eb854172be86b9ULL},
    {"fuzz-null/4", 0xb0b4b47bc54616aaULL},
    {"fuzz-full/4", 0x2189930ee04d02c4ULL},
    {"fuzz-null/5", 0xe9f627cb79b3eb10ULL},
    {"fuzz-full/5", 0x4beed38d64c7f110ULL},
    {"fuzz-null/6", 0xc84d0c9c94edbe38ULL},
    {"fuzz-full/6", 0xb31b96479c53ec2cULL},
    {"fuzz-null/7", 0x805362b719829bbdULL},
    {"fuzz-full/7", 0x9911c43c0bbfdab7ULL},
    {"fuzz-null/8", 0xd852180132b2eb0dULL},
    {"fuzz-full/8", 0xb6204356132899edULL},
    {"fuzz-null/9", 0xbfa616f59164368aULL},
    {"fuzz-full/9", 0xbcc9ef96d0df6040ULL},
    {"fuzz-null/10", 0x463e296248e991e3ULL},
    {"fuzz-full/10", 0x1cf7e23bf6cdb54aULL},
    {"fuzz-null/11", 0xefc97f65ec003690ULL},
    {"fuzz-full/11", 0xfa572ed8badf87b3ULL},
    {"fuzz-null/12", 0xcce867cb01e84b1dULL},
    {"fuzz-full/12", 0xbe57b8d20ae9fff7ULL},
    {"fuzz-null/13", 0x490c7eb7f45c1ef6ULL},
    {"fuzz-full/13", 0xc4abd09410156344ULL},
    {"fuzz-null/14", 0xc547fd75127ac1bfULL},
    {"fuzz-full/14", 0x8213364b6f5f75bbULL},
    {"fuzz-null/15", 0x72dd202d472db944ULL},
    {"fuzz-full/15", 0x96fbc1e22aabf1bfULL},
    {"fuzz-null/16", 0xd257c3afeb18993fULL},
    {"fuzz-full/16", 0x952a1446821a1cf7ULL},
    {"fuzz-null/17", 0x8b037860eb2304eaULL},
    {"fuzz-full/17", 0x1baf58230aaad38aULL},
    {"fuzz-null/18", 0x304336a78f000073ULL},
    {"fuzz-full/18", 0x80ffdef220da92aaULL},
    {"fuzz-null/19", 0x66e58a75726b1eeeULL},
    {"fuzz-full/19", 0xc96bf720f034c8e1ULL},
    {"fuzz-null/20", 0xe69af0c9b8905ee1ULL},
    {"fuzz-full/20", 0xb08c2b0457c9ec8eULL},
    {"fuzz-null/21", 0xe9d63ff4fd79e2a5ULL},
    {"fuzz-full/21", 0xdd7ac10024405a3bULL},
    {"fuzz-null/22", 0xb98b54af2bf7c8c3ULL},
    {"fuzz-full/22", 0xb249b99de451711dULL},
    {"fuzz-null/23", 0x3492787510553539ULL},
    {"fuzz-full/23", 0x0c9544a810bb865fULL},
    {"fuzz-null/24", 0x2647223202f6717cULL},
    {"fuzz-full/24", 0x982b7b893f9cfe79ULL},
    {"fuzz-null/25", 0x117693f1a85860bcULL},
    {"fuzz-full/25", 0x253c98f9bcdaa730ULL},
    {"fuzz-null/26", 0x367a927bc02c6ed8ULL},
    {"fuzz-full/26", 0x14c903204f50ffc3ULL},
    {"fuzz-null/27", 0xe0baebe71bda51fcULL},
    {"fuzz-full/27", 0x5aa9f020cbc23572ULL},
    {"fuzz-null/28", 0xc77d97d0ae554118ULL},
    {"fuzz-full/28", 0x56aff7d2e8720abaULL},
    {"fuzz-null/29", 0x325caa40a341d0bdULL},
    {"fuzz-full/29", 0x37b8e1fdc2a50327ULL},
    {"fuzz-null/30", 0xac556369faabfeb2ULL},
    {"fuzz-full/30", 0xf1b641ed078177e9ULL},
    {"wl-pareto-1/p1/actual", 0x884ebe905bd92301ULL},
    {"wl-pareto-1/p1/measured", 0x2127f8608246b5e8ULL},
    {"wl-pareto-1/p2/actual", 0xc2ca39dc25beb883ULL},
    {"wl-pareto-1/p2/measured", 0x789667ef1c0ad601ULL},
    {"wl-pareto-1/p8/actual", 0xaa9d44674ca879beULL},
    {"wl-pareto-1/p8/measured", 0x0839a976401d877fULL},
    {"wl-pareto-2/p1/actual", 0x5a18b2cb93a935f4ULL},
    {"wl-pareto-2/p1/measured", 0xb23f012ff4e2317fULL},
    {"wl-pareto-2/p2/actual", 0xd1a1e0c54f54730bULL},
    {"wl-pareto-2/p2/measured", 0xe32a0ba38e898697ULL},
    {"wl-pareto-2/p8/actual", 0x743880b4762c9805ULL},
    {"wl-pareto-2/p8/measured", 0x33b1278884dad9daULL},
    {"wl-lognormal-1/p1/actual", 0x8984205dc0791cddULL},
    {"wl-lognormal-1/p1/measured", 0x7d60362c72294bd6ULL},
    {"wl-lognormal-1/p2/actual", 0x96a7ee3a3618a0e8ULL},
    {"wl-lognormal-1/p2/measured", 0x7878793f7ec6a494ULL},
    {"wl-lognormal-1/p8/actual", 0x95fbf836cbe10386ULL},
    {"wl-lognormal-1/p8/measured", 0x41e4fbdbce4a94e5ULL},
    {"wl-lognormal-2/p1/actual", 0x628e0c36677b5a81ULL},
    {"wl-lognormal-2/p1/measured", 0x5b11231b3953d49cULL},
    {"wl-lognormal-2/p2/actual", 0xfb12d786561fc030ULL},
    {"wl-lognormal-2/p2/measured", 0x4be4f0d24990bad8ULL},
    {"wl-lognormal-2/p8/actual", 0x3931b3dc7419caceULL},
    {"wl-lognormal-2/p8/measured", 0x23c5785ba1bb7917ULL},
    {"wl-contention-1/p1/actual", 0x9a2388ee7f3a301dULL},
    {"wl-contention-1/p1/measured", 0x3713a10c5aae38baULL},
    {"wl-contention-1/p2/actual", 0xce495a122fedb810ULL},
    {"wl-contention-1/p2/measured", 0xe1c37c919ac5302aULL},
    {"wl-contention-1/p8/actual", 0xb94c6b266a601194ULL},
    {"wl-contention-1/p8/measured", 0x9a678c454cd6323bULL},
    {"wl-contention-2/p1/actual", 0x970d06edb8fd1a67ULL},
    {"wl-contention-2/p1/measured", 0xcacca3c0f466bf73ULL},
    {"wl-contention-2/p2/actual", 0x11e12a6dd9674046ULL},
    {"wl-contention-2/p2/measured", 0x1d2bf71f1f51bb23ULL},
    {"wl-contention-2/p8/actual", 0x2165aedac02aca78ULL},
    {"wl-contention-2/p8/measured", 0xf183b0407d3cfee7ULL},
    {"wl-irregular-1/p1/actual", 0xca896b42bc032c84ULL},
    {"wl-irregular-1/p1/measured", 0x059126d29c85be01ULL},
    {"wl-irregular-1/p2/actual", 0xc39eaf65d7ae5094ULL},
    {"wl-irregular-1/p2/measured", 0x8fc3e275018e74a1ULL},
    {"wl-irregular-1/p8/actual", 0x811bf8b3b800fffbULL},
    {"wl-irregular-1/p8/measured", 0xa78b92a3b06b17c4ULL},
    {"wl-irregular-2/p1/actual", 0x6902378d255a43c8ULL},
    {"wl-irregular-2/p1/measured", 0x8e4cbc80f7d1e546ULL},
    {"wl-irregular-2/p2/actual", 0x7ed96be51b4c4151ULL},
    {"wl-irregular-2/p2/measured", 0xa1d025fd2be235b7ULL},
    {"wl-irregular-2/p8/actual", 0xc116fbd052017b9aULL},
    {"wl-irregular-2/p8/measured", 0xddb488b077c7cb19ULL},
    {"wl-bursty-1/p1/actual", 0xa82c3b3ec1fadbfdULL},
    {"wl-bursty-1/p1/measured", 0xf44592b5829963f2ULL},
    {"wl-bursty-1/p2/actual", 0x4ac74f51939d0437ULL},
    {"wl-bursty-1/p2/measured", 0x4ea0f1cfa22785d4ULL},
    {"wl-bursty-1/p8/actual", 0x636130da1a390a3eULL},
    {"wl-bursty-1/p8/measured", 0x09a0cdcba4a91521ULL},
    {"wl-bursty-2/p1/actual", 0x34cc055d1854b4f1ULL},
    {"wl-bursty-2/p1/measured", 0xe9bec6136ab0b86cULL},
    {"wl-bursty-2/p2/actual", 0xae5c70d02e106f04ULL},
    {"wl-bursty-2/p2/measured", 0x78c6e7f7d6d40ba3ULL},
    {"wl-bursty-2/p8/actual", 0x7f9e5d0f5dd27af7ULL},
    {"wl-bursty-2/p8/measured", 0xda997b7b580610d1ULL},
};

inline constexpr Digest kIndexDigests[] = {
    {"lfk3/p1", 0x264f82d48956038aULL},
    {"lfk3/p2", 0xea26496c4f56a682ULL},
    {"lfk3/p8", 0x3a4dc7531f7a08d6ULL},
    {"lfk4/p1", 0x1de6a768b53ce5eeULL},
    {"lfk4/p2", 0x7811d772b4aa9935ULL},
    {"lfk4/p8", 0xdcf8fe85ac06613eULL},
    {"lfk17/p1", 0x0f8a2ded4b3db98fULL},
    {"lfk17/p2", 0xbcca0d73ff4e05e5ULL},
    {"lfk17/p8", 0x441674fc2c6da708ULL},
    {"contention", 0x92155d34757409f7ULL},
    {"semaphore", 0xa19d8534dd14e9e6ULL},
    {"barrier", 0x7fe7cffd22bcdff1ULL},
    {"duplicate-advance", 0x2cd671df5d64d699ULL},
};

inline constexpr Digest kApproxDigests[] = {
    {"lfk3/p1", 0x42c38daab082736eULL},
    {"lfk3/p2", 0x31144714ea68efceULL},
    {"lfk3/p8", 0x8ec3f99a2e03bb34ULL},
    {"lfk4/p1", 0x1babcfc3989d4acbULL},
    {"lfk4/p2", 0x4c7956af0e813ccaULL},
    {"lfk4/p8", 0x659fc286c8a70c02ULL},
    {"lfk17/p1", 0xf94984092eceabc6ULL},
    {"lfk17/p2", 0x10e0bc064e02ef59ULL},
    {"lfk17/p8", 0x7f654972cf85a60bULL},
    {"contention", 0x9a144f8663a1298fULL},
    {"semaphore", 0x1b83ea3ff4f16ab2ULL},
    {"barrier", 0x9090597d97f6e1afULL},
    {"duplicate-advance", 0xf298941617fdf0acULL},
};

inline constexpr Digest kAnalysesDigests[] = {
    {"lfk3/p1", 0x0778e5abc54af64eULL},
    {"lfk3/p2", 0x2c7ad1721cb0229dULL},
    {"lfk3/p8", 0x27b9833fee0aca13ULL},
    {"lfk4/p1", 0x7b1e57d8f7631f50ULL},
    {"lfk4/p2", 0x18949e976b0c00a6ULL},
    {"lfk4/p8", 0xdf72cde2a4cb45eeULL},
    {"lfk17/p1", 0xec040b8088ff744cULL},
    {"lfk17/p2", 0xd0c36d2421abc1a8ULL},
    {"lfk17/p8", 0xfc1d9ee7ee8f6be7ULL},
    {"contention", 0x80e35b1539aad51bULL},
    {"semaphore", 0x318970d394563ecbULL},
    {"barrier", 0x24b526877e8a783aULL},
    {"duplicate-advance", 0xe5639060c167bc2aULL},
    {"interleaved-awaits", 0x818c471a50428950ULL},
    {"duplicate-advances", 0xb7e323b5bb2ed0e8ULL},
    {"await-before-advance", 0x848533a63bc596e2ULL},
    {"duplicate-await-begin", 0x3502c263479b392fULL},
    {"reversed-advances", 0x0891b0ca34d70951ULL},
    {"repeated-await-end", 0x62a9ae9ff79eabedULL},
};

}  // namespace perturb::golden
