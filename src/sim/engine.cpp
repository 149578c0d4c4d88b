#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/text.hpp"

namespace perturb::sim {

namespace {

using trace::Event;
using trace::EventKind;
using trace::ProcId;
using trace::Tick;

/// Advance/await payloads are episode * kPairStride + index, so pairs stay
/// unique across repeated executions of the same loop.
constexpr std::int64_t kPairStride = std::int64_t{1} << 32;

/// advanced_flat slot value for "no advance executed for this index yet".
constexpr Tick kNotAdvanced = std::numeric_limits<Tick>::min();

/// Waiter-list size beyond which an advance's waiter lookup switches from
/// the linear scan to the per-pair index.  Waiter counts are bounded by the
/// processor count, so only large simulated machines ever cross this.
constexpr std::size_t kWaiterIndexThreshold = 32;

/// queued_clock_ sentinel for "processor not runnable".
constexpr Tick kIdleClock = std::numeric_limits<Tick>::max();

struct Frame {
  enum class Kind : std::uint8_t {
    kBlock,       ///< executing a block of nodes
    kSeqLoop,     ///< sequential loop control
    kCritical,    ///< lock acquire / body / release
    kSemaphore,   ///< semaphore P() / body / V()
    kAwaitCheck,  ///< the satisfaction test of an await (pop = read time)
    kParWorker,   ///< parallel-loop worker: dispatch / iteration end
  };
  Kind kind;
  const Block* block = nullptr;  ///< kBlock
  std::size_t pc = 0;            ///< kBlock
  const Node* node = nullptr;    ///< all other kinds
  std::int64_t iter = 0;  ///< kSeqLoop: next iter; kParWorker: current iter;
                          ///< kAwaitCheck: pair index
  int phase = 0;          ///< kCritical / kParWorker state
};

/// One event as recorded into a per-processor arena: the event plus its
/// global emission ordinal, the tie-break among equal timestamps that keeps
/// the merged trace in happened-before-consistent emission order.
struct Pending {
  Event e;
  std::uint64_t seq;
};

struct Proc {
  ProcId id = 0;
  Tick clock = 0;
  std::vector<Frame> stack;
  std::vector<Pending> arena;  ///< this processor's events
  std::uint64_t events_recorded = 0;
  bool queued = false;
  std::int64_t par_iter = -1;  ///< current parallel-loop iteration, -1 outside
};

/// FIFO of blocked processors.  A vector plus a head cursor instead of a
/// std::deque: waiter lists are short and churn every critical section, and
/// this layout reuses one flat allocation for the lifetime of the run.
class WaitList {
 public:
  bool empty() const noexcept { return head_ == q_.size(); }
  void push_back(ProcId p) { q_.push_back(p); }
  ProcId front() const { return q_[head_]; }
  void pop_front() {
    if (++head_ == q_.size()) {
      q_.clear();
      head_ = 0;
    }
  }

 private:
  std::vector<ProcId> q_;
  std::size_t head_ = 0;
};

struct VarState {
  // The active episode's advances as a flat index-keyed table (re-assigned
  // per loop execution), plus a rare overflow map for advance indices beyond
  // the loop's trip count (dead advances nobody can await).
  std::vector<Tick> advanced_flat;
  std::unordered_map<std::int64_t, Tick> advanced_over;
  /// Blocked awaiters as flat (pair, proc) entries in block order; an
  /// advance wakes its pair's entries front-to-back, which preserves the
  /// per-pair FIFO the old map-of-vectors gave.
  std::vector<std::pair<std::int64_t, ProcId>> waiters;
  /// Large machines: per-pair waiter FIFOs keyed on the awaited
  /// pair, populated once `waiters` outgrows kWaiterIndexThreshold.  In
  /// debug builds `waiters` is kept as a shadow to assert the index wakes
  /// the exact processors, in the exact order, the linear scan would.
  std::unordered_map<std::int64_t, std::vector<ProcId>> waiter_index;
  bool indexed = false;
  std::size_t waiter_count = 0;
};

struct LockState {
  bool held = false;
  Tick free_since = 0;
  WaitList waiters;  ///< FIFO by request (pop) time
};

struct BarrierState {
  std::uint32_t arrived = 0;
  Tick max_arrival = 0;
  std::vector<ProcId> waiters;
};

struct SemState {
  std::int64_t capacity = 0;
  std::vector<Tick> permits;  ///< visibility times of free permits
  WaitList waiters;           ///< FIFO by request (pop) time
};

/// Exact integer count of i in [0, trip) with 0 <= scale*i + offset < trip —
/// the iterations whose await is dependence-carrying (emits awaitB/awaitE).
std::int64_t count_awaitable(const IndexExpr& ix, std::int64_t trip) {
  if (trip <= 0) return 0;
  if (ix.scale == 0)
    return (ix.offset >= 0 && ix.offset < trip) ? trip : 0;
  const auto ceil_div = [](std::int64_t a, std::int64_t b) {  // b > 0
    return a >= 0 ? (a + b - 1) / b : -((-a) / b);
  };
  const auto floor_div = [](std::int64_t a, std::int64_t b) {  // b > 0
    return a >= 0 ? a / b : -(((-a) + b - 1) / b);
  };
  std::int64_t lo, hi;
  if (ix.scale > 0) {
    lo = ceil_div(-ix.offset, ix.scale);
    hi = floor_div(trip - 1 - ix.offset, ix.scale);
  } else {
    const std::int64_t s = -ix.scale;
    // 0 <= -s*i + offset < trip  ⇔  offset - (trip-1) <= s*i <= offset
    lo = ceil_div(ix.offset - (trip - 1), s);
    hi = floor_div(ix.offset, s);
  }
  lo = std::max<std::int64_t>(lo, 0);
  hi = std::min<std::int64_t>(hi, trip - 1);
  return hi >= lo ? hi - lo + 1 : 0;
}

/// Exact number of events a run of `prog` under `hook` records, folded from
/// the IR's trip counts; lets the engine reserve its arenas up front and
/// the final trace exactly.  `HookT` is the sealed hook type, so the
/// records() queries here are the same direct calls the run loop makes.
template <typename HookT>
class EventCounter {
 public:
  EventCounter(const MachineConfig& cfg, const HookT& hook)
      : cfg_(cfg), hook_(hook) {}

  std::uint64_t count(const Program& prog) const {
    std::uint64_t total = rec(EventKind::kProgramBegin, 0) +
                          rec(EventKind::kProgramEnd, 0);
    total += block(prog.root(), 1, nullptr);
    return total;
  }

 private:
  std::uint64_t rec(EventKind kind, trace::EventId id) const {
    return hook_.records(kind, id) ? 1u : 0u;
  }

  std::uint64_t block(const Block& b, std::uint64_t execs,
                      const Node* par) const {
    std::uint64_t total = 0;
    for (const auto& n : b.nodes) total += node(*n, execs, par);
    return total;
  }

  std::uint64_t node(const Node& n, std::uint64_t execs,
                     const Node* par) const {
    switch (n.kind) {
      case NodeKind::kCompute:
        if (!n.traced) return 0;
        return execs * (rec(EventKind::kStmtEnter, n.id) +
                        rec(EventKind::kStmtExit, n.id));
      case NodeKind::kSeqLoop:
        return block(n.body, execs * static_cast<std::uint64_t>(n.trip), par);
      case NodeKind::kParLoop: {
        const auto trip = static_cast<std::uint64_t>(n.trip);
        std::uint64_t per_exec =
            rec(EventKind::kLoopBegin, n.id) + rec(EventKind::kLoopEnd, n.id) +
            trip * (rec(EventKind::kIterBegin, n.id) +
                    rec(EventKind::kIterEnd, n.id)) +
            cfg_.num_procs * (rec(EventKind::kBarrierArrive, n.id) +
                              rec(EventKind::kBarrierDepart, n.id));
        return execs * per_exec + block(n.body, execs * trip, &n);
      }
      case NodeKind::kCritical:
        return execs * (rec(EventKind::kLockAcquire, n.id) +
                        rec(EventKind::kLockRelease, n.id)) +
               block(n.body, execs, par);
      case NodeKind::kSemRegion:
        return execs * (rec(EventKind::kSemAcquire, n.id) +
                        rec(EventKind::kSemRelease, n.id)) +
               block(n.body, execs, par);
      case NodeKind::kAdvance:
        return execs * rec(EventKind::kAdvance, n.id);
      case NodeKind::kAwait: {
        PERTURB_CHECK_MSG(par != nullptr, "await outside parallel loop");
        // execs is a multiple of the governing trip; scale by the number of
        // iterations whose await index lands inside [0, trip).
        const std::uint64_t sat =
            static_cast<std::uint64_t>(count_awaitable(n.index, par->trip));
        const std::uint64_t per_iter_execs =
            par->trip > 0 ? execs / static_cast<std::uint64_t>(par->trip) : 0;
        return per_iter_execs * sat *
               (rec(EventKind::kAwaitBegin, n.id) +
                rec(EventKind::kAwaitEnd, n.id));
      }
    }
    return 0;
  }

  const MachineConfig& cfg_;
  const HookT& hook_;
};

/// The discrete-event engine, templated on the hook's concrete type.
///
/// `HookT` seals per-event dispatch: for NullInstrumentation and
/// CostTableHook (both `final`), records()/probe_cost() compile to direct,
/// inlinable calls; `HookT = InstrumentationHook` is the retained virtual
/// fallback for out-of-tree hooks.
///
/// Events go to per-processor append-only arenas merged once at finalize by
/// (time, emission ordinal); the next action is the global (tick, pid)
/// minimum of a flat per-processor clock array; advances live in flat
/// index-keyed tables; and blocked awaiters are found by a linear scan that
/// switches to a per-pair index on large machines.
template <typename HookT>
class Engine {
 public:
  Engine(const MachineConfig& cfg, const Program& prog, const HookT& hook,
         const std::string& run_name)
      : cfg_(cfg), prog_(prog), hook_(hook) {
    PERTURB_CHECK_MSG(prog.finalized(), "program must be finalized");
    PERTURB_CHECK(cfg.num_procs > 0);
    trace::TraceInfo info;
    info.name = run_name;
    info.num_procs = cfg.num_procs;
    info.ticks_per_us = cfg.ticks_per_us;
    trace_ = trace::Trace(info);
    procs_.resize(cfg.num_procs);
    expected_events_ = EventCounter<HookT>(cfg, hook).count(prog);
    for (std::uint32_t q = 0; q < cfg.num_procs; ++q) {
      procs_[q].id = static_cast<ProcId>(q);
      procs_[q].stack.reserve(16);  // typical nesting; avoids regrow churn
      // Exact total split evenly; imbalanced schedules regrow amortized.
      procs_[q].arena.reserve(expected_events_ / cfg.num_procs + 8);
    }
    queued_clock_.assign(cfg.num_procs, kIdleClock);
    vars_.resize(prog.num_sync_vars() + 1);
    locks_.resize(prog.num_locks() + 1);
    sems_.resize(prog.num_semaphores() + 1);
    for (std::uint32_t sid = 1; sid <= prog.num_semaphores(); ++sid) {
      sems_[sid].capacity = prog.semaphore_capacity(sid);
      sems_[sid].permits.assign(
          static_cast<std::size_t>(sems_[sid].capacity), 0);
    }
  }

  trace::Trace run() {
    Proc& master = procs_[0];
    emit(master, EventKind::kProgramBegin, 0, 0, 0);
    master.stack.push_back(
        {Frame::Kind::kBlock, &prog_.root(), 0, nullptr, 0, 0});
    enqueue(master);

    run_loop();
    check_quiescent();
    merge_arenas();
    if (metrics_on_) flush_metrics();
    return std::move(trace_);
  }

 private:
  // ---- run loop ---------------------------------------------------------

  /// Selects the next action by scanning a compact per-proc clock array
  /// instead of maintaining a binary heap: with the machine sizes the
  /// paper's experiments use (<= 16 processors) the whole array is one or
  /// two cache lines, so an O(P) argmin beats heap sift bookkeeping — and
  /// enqueue/dequeue become single stores.  Strict less with ascending scan
  /// order selects the (tick, pid) lexicographic minimum.
  void run_loop() {
    for (;;) {
      Tick best = kIdleClock;
      std::size_t pid = queued_clock_.size();
      for (std::size_t q = 0; q < queued_clock_.size(); ++q) {
        if (queued_clock_[q] < best) {
          best = queued_clock_[q];
          pid = q;
        }
      }
      if (pid == queued_clock_.size()) break;
      Proc& p = procs_[pid];
      PERTURB_DCHECK(p.queued && p.clock == best);
      queued_clock_[pid] = kIdleClock;
      p.queued = false;
      if (metrics_on_) --runnable_;
      step(p);
    }
  }

  /// Merges the per-processor arenas into one (time, emission ordinal)
  /// ordered trace: global time order, and emission order among ties.
  /// Arenas are individually sorted (per-processor clocks are nondecreasing
  /// and ordinals increase per emission), so a k-way merge suffices; a
  /// winner tree over the cursors keeps it to ceil(log2 P) key comparisons
  /// per event, which beats both a rescan per event and an O(n log n) sort.
  void merge_arenas() {
    std::size_t total = 0;
    for (const auto& q : procs_) total += q.arena.size();
    PERTURB_DCHECK(total == expected_events_);
    std::vector<Event>& out = trace_.events();
    out.resize(total);
    Event* dst = out.data();

    const std::size_t num = procs_.size();
    if (num == 1) {
      for (const Pending& pe : procs_[0].arena) *dst++ = pe.e;
      return;
    }
    // Merge keys are (time, seq) packed into one 128-bit integer so the
    // winner selection compiles to compare + conditional moves instead of
    // data-dependent branches — which way a cross-processor time comparison
    // goes is a coin flip, and mispredicts would dominate the merge.
    __extension__ typedef unsigned __int128 Key;  // NOLINT: cmov-friendly key
    const auto key_of = [](const Pending& pe) {
      return (static_cast<Key>(static_cast<std::uint64_t>(pe.e.time)) << 64) |
             pe.seq;
    };
    // Exhausted cursors park on a maximal-key sentinel and simply keep
    // losing; termination is by count.  Leaves are padded to a power of two
    // with pre-exhausted dummies.
    static constexpr Pending kExhausted{
        {std::numeric_limits<Tick>::max(), 0, 0, 0, 0, EventKind::kUser},
        std::numeric_limits<std::uint64_t>::max()};
    std::size_t leaves = 1;
    while (leaves < num) leaves <<= 1;
    std::vector<const Pending*> head(leaves, &kExhausted);
    std::vector<const Pending*> end(leaves, nullptr);
    std::vector<Key> key(leaves, key_of(kExhausted));
    for (std::size_t q = 0; q < num; ++q) {
      if (procs_[q].arena.empty()) continue;
      head[q] = procs_[q].arena.data();
      end[q] = head[q] + procs_[q].arena.size();
      key[q] = key_of(*head[q]);
    }
    // tree[i] = cursor winning the subtree rooted at i; leaves at
    // tree[leaves + q] = q.
    std::vector<std::uint32_t> tree(2 * leaves);
    for (std::size_t q = 0; q < leaves; ++q)
      tree[leaves + q] = static_cast<std::uint32_t>(q);
    for (std::size_t i = leaves - 1; i >= 1; --i) {
      const std::uint32_t x = tree[2 * i], y = tree[2 * i + 1];
      tree[i] = key[x] < key[y] ? x : y;
    }
    for (std::size_t n = 0; n < total; ++n) {
      const std::uint32_t w = tree[1];
      *dst++ = head[w]->e;
      if (++head[w] == end[w]) head[w] = &kExhausted;
      key[w] = key_of(*head[w]);
      // Replay the winner's path to the root.
      for (std::size_t i = (leaves + w) >> 1; i >= 1; i >>= 1) {
        const std::uint32_t x = tree[2 * i], y = tree[2 * i + 1];
        tree[i] = key[x] < key[y] ? x : y;
      }
    }
  }

  // ---- event emission -------------------------------------------------

  void emit(Proc& p, EventKind kind, trace::EventId id, trace::ObjectId object,
            std::int64_t payload) {
    if (!hook_.records(kind, id)) return;
    const Cycles probe = hook_.probe_cost(kind, id, p.id, p.events_recorded);
    PERTURB_CHECK_MSG(probe >= 0, "negative probe cost");
    p.clock += probe;
    Event e;
    e.time = p.clock;
    e.payload = payload;
    e.id = id;
    e.object = object;
    e.proc = p.id;
    e.kind = kind;
    PERTURB_DCHECK(p.arena.empty() || p.arena.back().e.time <= e.time);
    p.arena.push_back({e, seq_++});
    ++p.events_recorded;
  }

  void enqueue(Proc& p) {
    PERTURB_CHECK(!p.queued);
    p.queued = true;
    if (metrics_on_) {
      ++runnable_;
      runnable_peak_ = std::max(runnable_peak_, runnable_);
    }
    queued_clock_[p.id] = p.clock;
  }

  // ---- stepping --------------------------------------------------------

  void step(Proc& p) {
    PERTURB_CHECK(!p.stack.empty());
    Frame& f = p.stack.back();
    switch (f.kind) {
      case Frame::Kind::kBlock: {
        if (f.pc == f.block->nodes.size()) {
          p.stack.pop_back();
          after_frame_pop(p);
          return;
        }
        const Node& n = *f.block->nodes[f.pc++];
        exec_node(p, n);
        return;
      }
      case Frame::Kind::kSeqLoop: {
        if (f.iter == f.node->trip) {
          p.stack.pop_back();
          after_frame_pop(p);
          return;
        }
        ++f.iter;
        p.clock += cfg_.seq_loop_iter_cost;
        p.stack.push_back(
            {Frame::Kind::kBlock, &f.node->body, 0, nullptr, 0, 0});
        enqueue(p);
        return;
      }
      case Frame::Kind::kCritical: {
        if (f.phase == 0) {
          request_lock(p, f);
        } else {
          release_lock(p, f);
        }
        return;
      }
      case Frame::Kind::kSemaphore: {
        if (f.phase == 0) {
          request_semaphore(p, f);
        } else {
          release_semaphore(p, f);
        }
        return;
      }
      case Frame::Kind::kAwaitCheck: {
        await_check(p, f);
        return;
      }
      case Frame::Kind::kParWorker: {
        if (f.phase == 1) {
          // Finish the iteration, then re-enqueue so the next dispatch's
          // shared-counter read happens at its own pop time.
          emit(p, EventKind::kIterEnd, f.node->id, f.node->id, f.iter);
          f.phase = 0;
          enqueue(p);
          return;
        }
        dispatch_iteration(p, f);
        return;
      }
    }
  }

  void after_frame_pop(Proc& p) {
    if (p.stack.empty()) {
      // Only the master's sequential flow can drain its stack this way;
      // workers are popped by the barrier release.
      PERTURB_CHECK_MSG(p.id == 0, "non-master processor ran out of work");
      emit(p, EventKind::kProgramEnd, 0, 0, 0);
      return;  // idle: not re-enqueued
    }
    enqueue(p);
  }

  void exec_node(Proc& p, const Node& n) {
    switch (n.kind) {
      case NodeKind::kCompute: {
        const std::int64_t payload = p.par_iter >= 0 ? p.par_iter : 0;
        if (n.traced) emit(p, EventKind::kStmtEnter, n.id, 0, payload);
        const Cycles cost =
            n.cost_fn ? n.cost_fn(iteration_context(p)) : n.cost;
        PERTURB_CHECK_MSG(cost >= 0, "negative computed statement cost");
        p.clock += cost;
        if (n.traced) emit(p, EventKind::kStmtExit, n.id, 0, payload);
        enqueue(p);
        return;
      }
      case NodeKind::kSeqLoop: {
        p.stack.push_back({Frame::Kind::kSeqLoop, nullptr, 0, &n, 0, 0});
        enqueue(p);
        return;
      }
      case NodeKind::kParLoop: {
        start_par_loop(p, n);
        return;
      }
      case NodeKind::kCritical: {
        p.stack.push_back({Frame::Kind::kCritical, nullptr, 0, &n, 0, 0});
        enqueue(p);
        return;
      }
      case NodeKind::kSemRegion: {
        p.stack.push_back({Frame::Kind::kSemaphore, nullptr, 0, &n, 0, 0});
        enqueue(p);
        return;
      }
      case NodeKind::kAdvance: {
        do_advance(p, n);
        return;
      }
      case NodeKind::kAwait: {
        do_await(p, n);
        return;
      }
    }
  }

  /// Iteration index a per-iteration cost function is evaluated with: the
  /// parallel-loop iteration when inside one, else the innermost sequential
  /// loop's current iteration, else 0.
  static std::int64_t iteration_context(const Proc& p) {
    if (p.par_iter >= 0) return p.par_iter;
    for (auto it = p.stack.rbegin(); it != p.stack.rend(); ++it)
      if (it->kind == Frame::Kind::kSeqLoop) return it->iter - 1;
    return 0;
  }

  // ---- advance / await -------------------------------------------------

  std::int64_t pair_index(std::int64_t idx) const {
    return par_episode_ * kPairStride + idx;
  }

  /// Records an advance's visibility, preferring the flat table for in-range
  /// indices.  Returns false on a duplicate.
  bool advance_insert(VarState& v, std::int64_t idx, Tick visibility) {
    if (idx < static_cast<std::int64_t>(v.advanced_flat.size())) {
      if (v.advanced_flat[static_cast<std::size_t>(idx)] != kNotAdvanced)
        return false;
      v.advanced_flat[static_cast<std::size_t>(idx)] = visibility;
      return true;
    }
    // Beyond the trip count: recordable but never awaitable.
    return v.advanced_over.insert({pair_index(idx), visibility}).second;
  }

  void do_advance(Proc& p, const Node& n) {
    PERTURB_CHECK_MSG(par_loop_ != nullptr, "advance outside parallel loop");
    PERTURB_CHECK(p.par_iter >= 0);
    const std::int64_t idx = n.index.eval(p.par_iter);
    PERTURB_CHECK_MSG(idx >= 0 && idx < kPairStride, "advance index range");
    const std::int64_t pair = pair_index(idx);

    p.clock += cfg_.advance_cost;
    const Tick visibility = p.clock;  // visible before the probe runs
    VarState& v = vars_[n.object];
    PERTURB_CHECK_MSG(advance_insert(v, idx, visibility),
                      "duplicate advance of " + n.label);

    emit(p, EventKind::kAdvance, n.id, n.object, pair);

    if (v.waiter_count > 0) wake_waiters(v, pair, visibility);
    enqueue(p);
  }

  void do_await(Proc& p, const Node& n) {
    PERTURB_CHECK_MSG(par_loop_ != nullptr, "await outside parallel loop");
    PERTURB_CHECK(p.par_iter >= 0);
    const std::int64_t idx = n.index.eval(p.par_iter);
    if (idx < 0 || idx >= par_loop_->trip) {
      // Dependence-free (e.g. the first d iterations of a distance-d chain):
      // the await is a no-op and generates no events.
      enqueue(p);
      return;
    }
    emit(p, EventKind::kAwaitBegin, n.id, n.object, pair_index(idx));
    p.clock += cfg_.await_check_cost;
    p.stack.push_back(
        {Frame::Kind::kAwaitCheck, nullptr, 0, &n, pair_index(idx), 0});
    enqueue(p);
  }

  void await_check(Proc& p, Frame& f) {
    const Node& n = *f.node;
    const std::int64_t pair = f.iter;
    VarState& v = vars_[n.object];
    // Await indices are < trip (do_await filtered the rest), so only the
    // flat table can hold the partner.
    const Tick visibility =
        v.advanced_flat[static_cast<std::size_t>(pair % kPairStride)];
    if (visibility == kNotAdvanced) {
      // Not yet advanced anywhere at or before our clock: block.  The
      // matching advance will wake us ((tick, pid) order guarantees it has
      // not been processed yet).
      add_waiter(v, pair, p.id);
      return;  // not enqueued
    }
    if (visibility <= p.clock) {
      // Satisfied without waiting.
      p.stack.pop_back();
      emit(p, EventKind::kAwaitEnd, n.id, n.object, pair);
      enqueue(p);
      return;
    }
    // The advance was executed by an earlier-start action but becomes visible
    // in our future: wait for visibility.
    p.clock = visibility + cfg_.await_resume_cost;
    p.stack.pop_back();
    emit(p, EventKind::kAwaitEnd, n.id, n.object, pair);
    enqueue(p);
  }

  void add_waiter(VarState& v, std::int64_t pair, ProcId pid) {
    ++v.waiter_count;
    if (!v.indexed) {
      v.waiters.emplace_back(pair, pid);
      if (v.waiters.size() > kWaiterIndexThreshold) {
        for (const auto& w : v.waiters)
          v.waiter_index[w.first].push_back(w.second);
        v.indexed = true;
        if (metrics_on_) ++waiter_index_switches_;
#ifdef NDEBUG
        v.waiters.clear();  // debug builds keep the shadow for the assert
#endif
      }
      return;
    }
    v.waiter_index[pair].push_back(pid);
#ifndef NDEBUG
    v.waiters.emplace_back(pair, pid);
#endif
  }

  /// Wakes a pair's awaiters: linear scan while the list is small, per-pair
  /// index lookup once it crossed the threshold.  Wake order is block order for
  /// the advanced pair either way (asserted against the linear scan in
  /// debug builds).
  void wake_waiters(VarState& v, std::int64_t pair, Tick visibility) {
    if (!v.indexed) {
      std::size_t keep = 0;
      for (std::size_t r = 0; r < v.waiters.size(); ++r) {
        if (v.waiters[r].first == pair) {
          --v.waiter_count;
          wake_awaiter(procs_[v.waiters[r].second], visibility);
        } else {
          v.waiters[keep++] = v.waiters[r];
        }
      }
      v.waiters.resize(keep);
      return;
    }
    const auto it = v.waiter_index.find(pair);
#ifndef NDEBUG
    std::vector<ProcId> linear;
    std::size_t keep = 0;
    for (std::size_t r = 0; r < v.waiters.size(); ++r) {
      if (v.waiters[r].first == pair) {
        linear.push_back(v.waiters[r].second);
      } else {
        v.waiters[keep++] = v.waiters[r];
      }
    }
    v.waiters.resize(keep);
    PERTURB_CHECK_MSG((it == v.waiter_index.end() && linear.empty()) ||
                          (it != v.waiter_index.end() && linear == it->second),
                      "waiter index diverged from linear wake order");
#endif
    if (it == v.waiter_index.end()) return;
    for (const ProcId qid : it->second) wake_awaiter(procs_[qid], visibility);
    v.waiter_count -= it->second.size();
    v.waiter_index.erase(it);
  }

  void wake_awaiter(Proc& q, Tick visibility) {
    PERTURB_CHECK(!q.queued);
    PERTURB_CHECK(!q.stack.empty() &&
                  q.stack.back().kind == Frame::Kind::kAwaitCheck);
    const Frame f = q.stack.back();
    q.stack.pop_back();
    q.clock = std::max(q.clock, visibility) + cfg_.await_resume_cost;
    emit(q, EventKind::kAwaitEnd, f.node->id, f.node->object, f.iter);
    enqueue(q);
  }

  // ---- critical sections ------------------------------------------------

  void request_lock(Proc& p, Frame& f) {
    LockState& l = locks_[f.node->object];
    if (l.held || !l.waiters.empty()) {
      l.waiters.push_back(p.id);  // blocked; granted FIFO on release
      return;
    }
    l.held = true;
    p.clock = std::max(p.clock, l.free_since) + cfg_.lock_acquire_cost;
    enter_critical(p, f);
  }

  void enter_critical(Proc& p, Frame& f) {
    emit(p, EventKind::kLockAcquire, f.node->id, f.node->object,
         p.par_iter >= 0 ? p.par_iter : 0);
    f.phase = 1;
    p.stack.push_back({Frame::Kind::kBlock, &f.node->body, 0, nullptr, 0, 0});
    enqueue(p);
  }

  void release_lock(Proc& p, Frame& f) {
    LockState& l = locks_[f.node->object];
    p.clock += cfg_.lock_release_cost;
    const Tick visibility = p.clock;  // visible before the probe runs
    l.held = false;
    l.free_since = visibility;
    emit(p, EventKind::kLockRelease, f.node->id, f.node->object,
         p.par_iter >= 0 ? p.par_iter : 0);
    p.stack.pop_back();
    enqueue(p);

    if (!l.waiters.empty()) {
      const ProcId qid = l.waiters.front();
      l.waiters.pop_front();
      Proc& q = procs_[qid];
      PERTURB_CHECK(!q.queued && !q.stack.empty());
      Frame& qf = q.stack.back();
      PERTURB_CHECK(qf.kind == Frame::Kind::kCritical && qf.phase == 0);
      l.held = true;
      q.clock = std::max(q.clock, visibility) + cfg_.lock_acquire_cost;
      enter_critical(q, qf);
    }
  }

  // ---- semaphore regions ---------------------------------------------------

  void request_semaphore(Proc& p, Frame& f) {
    SemState& sem = sems_[f.node->object];
    if (!sem.waiters.empty() || sem.permits.empty()) {
      sem.waiters.push_back(p.id);  // blocked; granted FIFO on release
      return;
    }
    // Take the earliest-visible permit.
    const auto best = std::min_element(sem.permits.begin(), sem.permits.end());
    const Tick available = *best;
    sem.permits.erase(best);
    p.clock = std::max(p.clock, available) + cfg_.sem_acquire_cost;
    enter_semaphore(p, f);
  }

  void enter_semaphore(Proc& p, Frame& f) {
    emit(p, EventKind::kSemAcquire, f.node->id, f.node->object,
         p.par_iter >= 0 ? p.par_iter : 0);
    f.phase = 1;
    p.stack.push_back({Frame::Kind::kBlock, &f.node->body, 0, nullptr, 0, 0});
    enqueue(p);
  }

  void release_semaphore(Proc& p, Frame& f) {
    SemState& sem = sems_[f.node->object];
    p.clock += cfg_.sem_release_cost;
    const Tick visibility = p.clock;  // visible before the probe runs
    emit(p, EventKind::kSemRelease, f.node->id, f.node->object,
         p.par_iter >= 0 ? p.par_iter : 0);
    p.stack.pop_back();
    enqueue(p);

    if (!sem.waiters.empty()) {
      const ProcId qid = sem.waiters.front();
      sem.waiters.pop_front();
      Proc& q = procs_[qid];
      PERTURB_CHECK(!q.queued && !q.stack.empty());
      Frame& qf = q.stack.back();
      PERTURB_CHECK(qf.kind == Frame::Kind::kSemaphore && qf.phase == 0);
      q.clock = std::max(q.clock, visibility) + cfg_.sem_acquire_cost;
      enter_semaphore(q, qf);
    } else {
      sem.permits.push_back(visibility);
    }
  }

  // ---- parallel loops ----------------------------------------------------

  void start_par_loop(Proc& p, const Node& n) {
    PERTURB_CHECK_MSG(par_loop_ == nullptr, "nested parallel loop at runtime");
    par_episode_ = loop_episodes_[&n]++;
    par_loop_ = &n;
    par_master_ = p.id;
    emit(p, EventKind::kLoopBegin, n.id, n.id, par_episode_);
    p.clock += cfg_.loop_spawn_cost;

    // Fresh synchronization state per loop execution; nothing may be in
    // flight between parallel loops.
    for (auto& v : vars_) {
      PERTURB_CHECK_MSG(v.waiter_count == 0, "awaiter leaked across loops");
      v.advanced_flat.assign(static_cast<std::size_t>(n.trip), kNotAdvanced);
      v.advanced_over.clear();
    }
    scheduler_ = make_scheduler(n.schedule, n.trip, cfg_.num_procs, cfg_);
    barrier_.arrived = 0;
    barrier_.max_arrival = 0;
    barrier_.waiters.clear();

    for (auto& q : procs_) {
      if (q.id != p.id) {
        PERTURB_CHECK_MSG(q.stack.empty(), "worker busy at loop start");
        q.clock = std::max(q.clock, p.clock);
      }
      q.stack.push_back({Frame::Kind::kParWorker, nullptr, 0, &n, -1, 0});
      enqueue(q);
    }
  }

  void dispatch_iteration(Proc& p, Frame& f) {
    Tick ready = p.clock;
    const std::int64_t iter = scheduler_->next(p.id, p.clock, &ready);
    if (iter < 0) {
      barrier_arrive(p);
      return;
    }
    PERTURB_CHECK(ready >= p.clock);
    p.clock = ready;
    p.par_iter = iter;
    f.iter = iter;
    f.phase = 1;
    emit(p, EventKind::kIterBegin, f.node->id, f.node->id, iter);
    p.stack.push_back({Frame::Kind::kBlock, &f.node->body, 0, nullptr, 0, 0});
    enqueue(p);
  }

  void barrier_arrive(Proc& p) {
    emit(p, EventKind::kBarrierArrive, par_loop_->id, par_loop_->id,
         par_episode_);
    barrier_.max_arrival = std::max(barrier_.max_arrival, p.clock);
    barrier_.waiters.push_back(p.id);
    if (++barrier_.arrived == cfg_.num_procs) release_barrier();
    // else: blocked, woken by the last arriver
  }

  void release_barrier() {
    const Node& loop = *par_loop_;
    const Tick release = barrier_.max_arrival;
    const std::int64_t episode = par_episode_;
    const ProcId master = par_master_;

    // Clear loop state before re-enqueueing the master, whose continuation
    // may immediately start another parallel loop.
    par_loop_ = nullptr;
    scheduler_.reset();
    barrier_scratch_.clear();
    std::swap(barrier_scratch_, barrier_.waiters);  // buffers ping-pong
    barrier_.arrived = 0;
    barrier_.max_arrival = 0;

    for (const ProcId qid : barrier_scratch_) {
      Proc& q = procs_[qid];
      PERTURB_CHECK(!q.queued);
      PERTURB_CHECK(!q.stack.empty() &&
                    q.stack.back().kind == Frame::Kind::kParWorker);
      q.stack.pop_back();
      q.par_iter = -1;
      q.clock = std::max(q.clock, release) + cfg_.barrier_depart_cost;
      emit(q, EventKind::kBarrierDepart, loop.id, loop.id, episode);
      if (q.id == master)
        emit(q, EventKind::kLoopEnd, loop.id, loop.id, episode);
      if (!q.stack.empty()) enqueue(q);
    }
  }

  // ---- self-observability --------------------------------------------------

  /// One registry write-out per completed run; handles are function-local
  /// statics so nothing registers unless a simulation actually runs with
  /// metrics enabled.
  void flush_metrics() const {
    static const support::Counter runs("sim.runs");
    static const support::Counter events("sim.events");
    static const support::Counter ticks("sim.ticks");
    static const support::Counter switches("sim.waiter_index_switches");
    static const support::Gauge ready_peak("sim.ready_peak");
    runs.add();
    events.add(trace_.size());
    ticks.add(static_cast<std::uint64_t>(trace_.total_time()));
    switches.add(waiter_index_switches_);
    ready_peak.record_max(static_cast<std::int64_t>(runnable_peak_));
  }

  // ---- termination --------------------------------------------------------

  void check_quiescent() const {
    for (const auto& p : procs_) {
      PERTURB_CHECK_MSG(
          p.stack.empty(),
          support::strf("deadlock: processor %u still has %zu frames",
                        unsigned(p.id), p.stack.size()));
    }
    for (const auto& v : vars_)
      PERTURB_CHECK_MSG(v.waiter_count == 0, "deadlock: awaiter never woken");
    for (const auto& l : locks_)
      PERTURB_CHECK_MSG(!l.held && l.waiters.empty(),
                        "deadlock: lock held or contended at exit");
    for (const auto& sem : sems_)
      PERTURB_CHECK_MSG(
          sem.waiters.empty() &&
              static_cast<std::int64_t>(sem.permits.size()) == sem.capacity,
          "deadlock: semaphore held or contended at exit");
  }

  const MachineConfig& cfg_;
  const Program& prog_;
  const HookT& hook_;
  trace::Trace trace_;
  std::vector<Proc> procs_;
  std::vector<VarState> vars_;    ///< indexed by sync-var id (0 unused)
  std::vector<LockState> locks_;  ///< indexed by lock id (0 unused)
  std::vector<SemState> sems_;    ///< indexed by semaphore id (0 unused)

  // Run-loop state.
  std::uint64_t seq_ = 0;             ///< global emission ordinal
  std::uint64_t expected_events_ = 0; ///< exact IR-folded recorded-event count
  std::vector<Tick> queued_clock_;    ///< per-proc action time, kIdleClock when
                                      ///< not runnable

  // Active parallel loop (at most one).
  const Node* par_loop_ = nullptr;
  std::int64_t par_episode_ = 0;
  ProcId par_master_ = 0;
  std::unique_ptr<IterationScheduler> scheduler_;
  BarrierState barrier_;
  std::vector<ProcId> barrier_scratch_;  ///< release_barrier working set
  std::unordered_map<const Node*, std::int64_t> loop_episodes_;

  // Self-observability tallies, flushed once per run (flush_metrics).  The
  // enable flag is cached at construction so the per-enqueue cost is one
  // predictable branch on a member bool; nothing is recorded per event.
  const bool metrics_on_ = support::Metrics::enabled();
  std::uint32_t runnable_ = 0;        ///< processors currently enqueued
  std::uint32_t runnable_peak_ = 0;   ///< ready-queue high-water mark
  std::uint64_t waiter_index_switches_ = 0;
};

}  // namespace

trace::Trace simulate(const MachineConfig& config, const Program& program,
                      const InstrumentationHook& hook,
                      const std::string& run_name) {
  // Seal the two standard hook types so their per-event records()/
  // probe_cost() calls dispatch (and inline) statically; anything else runs
  // the same engine through the retained virtual interface.
  if (const auto* null_hook = dynamic_cast<const NullInstrumentation*>(&hook))
    return Engine<NullInstrumentation>(config, program, *null_hook, run_name)
        .run();
  if (const auto* table = dynamic_cast<const CostTableHook*>(&hook))
    return Engine<CostTableHook>(config, program, *table, run_name).run();
  return Engine<InstrumentationHook>(config, program, hook, run_name).run();
}

trace::Trace simulate_actual(const MachineConfig& config,
                             const Program& program,
                             const std::string& run_name) {
  const NullInstrumentation hook;
  return simulate(config, program, hook, run_name);
}

}  // namespace perturb::sim
