// Package mcts implements Monte Carlo Tree Search with UCT selection, the
// paper's search procedure: each iteration selects the state with the
// highest UCT score, expands its immediate neighbor states, performs a
// random walk of up to MaxRolloutDepth steps (200 in the paper) from each
// new child, and adds the final state's reward to every state along the
// path. The search stops on an iteration or wall-clock budget.
//
// The package is generic over the state space: the interface-generation
// domain (difftrees + transformation rules) plugs in via Domain.
//
// Search is an anytime algorithm: it accepts a context.Context and stops
// promptly — returning the best state seen so far — when the context is
// cancelled or its deadline passes, in addition to the iteration and
// wall-clock budgets in Config.
//
// Config.TreeWorkers sets how many goroutines run the loop on the one search
// tree (tree parallelization, the paper's route to interactive run-times).
// The tree is shared with the classic virtual-loss design: while a worker is
// inside an iteration, every node on its selection path carries a virtual
// loss — an extra visit that contributes zero reward — so concurrent workers
// see in-flight paths as less attractive and diversify instead of piling
// onto the same leaf. Expansion and the reconciliation of reused nodes are
// guarded per node, statistics are atomics, and each new child is claimed
// for its one random walk by CAS. A worker adds its own virtual loss to a
// node only after scoring that node's children, so one worker (the default)
// always scores with none and is bit-identical per seed. More workers are not
// reproducible across runs — the scheduler decides which states get visited
// — but every accounting invariant holds: after the workers join no virtual
// loss remains, and each node's visit count equals the backpropagations
// through it.
package mcts

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// State is one search state. Hash identifies states for deduplication of a
// node's children; equal states may hash equally.
type State interface {
	Hash() uint64
}

// Domain defines the search space.
type Domain interface {
	// Neighbors returns the states reachable in one legal move.
	Neighbors(s State) []State
	// Reward estimates the quality of s in [0, 1] (higher is better). The
	// paper uses the negated interface cost mapped into this range.
	Reward(s State) float64
}

// Sampler is an optional Domain extension: draw one random neighbor without
// materializing all of them (much cheaper during rollouts). ok is false when
// s has no neighbors.
type Sampler interface {
	RandomNeighbor(s State, rng *rand.Rand) (State, bool)
}

// Config tunes the search. Its zero value is usable: Search fills in the
// paper's defaults (C = √2, rollouts of up to 200 steps) and a budget of 100
// iterations when neither budget is set.
type Config struct {
	// C is the UCT exploration constant (√2 default).
	C float64
	// MaxRolloutDepth bounds random walks (paper: up to 200 steps).
	MaxRolloutDepth int
	// Iterations bounds the number of MCTS iterations (0 = unbounded; then
	// TimeBudget must be set). With TreeWorkers > 1 the budget is shared
	// across workers, not multiplied by them.
	Iterations int
	// TimeBudget bounds wall-clock time (0 = unbounded).
	TimeBudget time.Duration
	// Seed makes the search deterministic. Worker 0 draws its rollouts from
	// Seed, worker w from Seed + w·0x9e3779b9.
	Seed int64
	// TreeWorkers is how many goroutines run the search loop on the one
	// search tree (values <= 1 mean one). With more than one, the Domain
	// must be safe for concurrent use. One worker is bit-identical for a
	// fixed seed; more are *not* reproducible across runs (worker
	// interleaving decides which states are visited), only the quality
	// envelope is pinned.
	TreeWorkers int
	// Reuse, when non-nil, seeds the search with a tree persisted by a
	// previous Search (Result.Tree). If the new root state occurs anywhere
	// in the reused tree, that subtree — visit counts, totals, and children
	// included — becomes the new search tree (Result.ReRooted reports it);
	// otherwise the search starts fresh. Reused nodes carry an older epoch:
	// selection treats them as unexpanded, and expansion re-derives their
	// neighbor set under the *current* domain, merging by state hash so
	// surviving children keep their statistics while vanished states drop
	// and new ones appear. Children that kept visits skip their simulation
	// pass, which is where a warm-started session append saves evaluations.
	// The search takes the tree over: one tree seeds at most one Search.
	Reuse *Tree
	// Progress, when non-nil, is invoked after every iteration with the
	// running result (anytime observability). It runs on a worker
	// goroutine and must be fast. With TreeWorkers > 1 it may be invoked
	// concurrently from several workers; callers needing serialization
	// wrap the callback in their own mutex.
	Progress func(Result)
}

// Result reports the search outcome.
type Result struct {
	Best        State   // highest-reward state seen anywhere in the search
	BestReward  float64 // its reward
	Iterations  int     // iterations actually executed
	Expanded    int     // total expanded nodes
	Rollouts    int     // total random walks
	Evals       int     // total Reward calls
	Interrupted bool    // the context ended the search before its budget
	Tree        *Tree   // the search tree, reusable via Config.Reuse
	ReRooted    bool    // the search started from a subtree of Config.Reuse
}

// Tree is an opaque persisted search tree, handed back by Search and
// accepted by Config.Reuse. It retains every state the search materialized,
// so holders should replace it with each newer Result.Tree rather than
// accumulate generations.
type Tree struct {
	root  *node
	epoch uint32
}

// Nodes counts the tree's nodes (stats and tests).
func (t *Tree) Nodes() int {
	if t == nil || t.root == nil {
		return 0
	}
	n := 0
	stack := []*node{t.root}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		stack = append(stack, c.children()...)
	}
	return n
}

// find returns the first node (pre-order) whose state hash is h, or nil.
func (t *Tree) find(h uint64) *node {
	if t == nil || t.root == nil {
		return nil
	}
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.state.Hash() == h {
			return n
		}
		stack = append(stack, n.children()...)
	}
	return nil
}

// node is one state of the search tree. Its statistics are atomics; its
// children are published as an immutable expansion, which reconciliation
// replaces (never mutates) under mu.
type node struct {
	state  State
	parent *node

	mu  sync.Mutex                // serializes expansion and reconciliation
	exp atomic.Pointer[expansion] // nil until the node is first expanded

	visits    atomic.Int64  // completed backpropagations through this node
	totalBits atomic.Uint64 // math.Float64bits of the summed reward
	vloss     atomic.Int64  // in-flight selection paths through this node
	simulated atomic.Bool   // claimed for its one expansion-time rollout
}

// expansion is a node's child set as derived by one Search run. epoch stamps
// which run: a reused node from an older run fails the selection-time epoch
// check and is reconciled against the current domain before being descended
// through.
type expansion struct {
	epoch    uint32
	children []*node
}

func (n *node) children() []*node {
	if e := n.exp.Load(); e != nil {
		return e.children
	}
	return nil
}

func (n *node) total() float64 { return math.Float64frombits(n.totalBits.Load()) }

// addTotal accumulates a reward into the node's float total via CAS.
func (n *node) addTotal(r float64) {
	for {
		old := n.totalBits.Load()
		if n.totalBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+r)) {
			return
		}
	}
}

// uct computes the node's UCT score given its parent's visit count. Each
// in-flight path through a node counts as one more visit with zero reward
// (virtual loss), lowering both the exploitation term and the exploration
// bonus of nodes other workers are currently inside.
func uct(n *node, c float64) float64 {
	eff := n.visits.Load() + n.vloss.Load()
	if eff == 0 {
		return math.Inf(1)
	}
	exploit := n.total() / float64(eff)
	if n.parent == nil {
		return exploit
	}
	N := n.parent.visits.Load() + n.parent.vloss.Load()
	if N < 1 {
		N = 1
	}
	return exploit + c*math.Sqrt(math.Log(float64(N))/float64(eff))
}

// Search runs MCTS from root and returns the best state found. A nil ctx is
// treated as context.Background(); when ctx ends mid-search the best
// state found so far is returned with Interrupted set.
func Search(ctx context.Context, d Domain, root State, cfg Config) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.C == 0 {
		cfg.C = math.Sqrt2
	}
	if cfg.MaxRolloutDepth <= 0 {
		cfg.MaxRolloutDepth = 200
	}
	if cfg.Iterations <= 0 && cfg.TimeBudget <= 0 {
		cfg.Iterations = 100
	}
	s := &searcher{d: d, cfg: cfg, ctx: ctx, epoch: 1}
	if cfg.TimeBudget > 0 {
		//mctsvet:allow wallclock -- anytime TimeBudget deadline: decides when to stop iterating, never feeds a reward or move choice
		s.deadline = time.Now().Add(cfg.TimeBudget)
	}
	rootNode := &node{state: root}
	if cfg.Reuse != nil {
		s.epoch = cfg.Reuse.epoch + 1
		if n := cfg.Reuse.find(root.Hash()); n != nil {
			// Re-root: the reused subtree keeps its statistics; its parent
			// link is severed so backprop stops here and the abandoned
			// ancestors become garbage.
			n.parent = nil
			rootNode = n
			s.reRooted = true
		}
	}
	s.tree = &Tree{root: rootNode, epoch: s.epoch}
	s.best = root
	s.bestReward = s.eval(root)

	// Worker 0 runs on the calling goroutine with the base seed; each other
	// worker owns a distinct rollout stream, golden-ratio strided from it as
	// in the root-parallel scheme.
	var wg sync.WaitGroup
	for w := 1; w < cfg.TreeWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s.work(rootNode, rand.New(rand.NewSource(seed)))
		}(cfg.Seed + int64(w)*0x9e3779b9)
	}
	s.work(rootNode, rand.New(rand.NewSource(cfg.Seed)))
	wg.Wait()
	s.primeBest()
	return s.result()
}

// primeBest prepares the persisted tree for reuse. A warm-started follow-up
// search re-roots at this search's best state, but the best state is almost
// always an unexpanded frontier leaf — a subtree with no statistics to
// reuse. Expanding it here gives that follow-up visited children to skip.
// Only tree statistics change: the Result counters, the incumbent best, and
// the search rng streams are untouched (child rewards are deterministic per
// state and not counted in Evals), so the search outcome stays bit-identical
// with or without priming. Skipped when the search was cut short — the
// budget is spent — and when the best state never became a tree node (e.g.
// it was only ever a rollout endpoint). Runs after the workers have joined.
func (s *searcher) primeBest() {
	if s.interrupted.Load() || s.expired() {
		return
	}
	n := s.tree.find(s.best.Hash())
	if n == nil || n.exp.Load() != nil {
		return
	}
	kids := s.derive(n, nil)
	for _, c := range kids {
		backprop(c, s.d.Reward(c.state))
	}
	n.exp.Store(&expansion{epoch: s.epoch, children: kids})
}

// searcher is the state of one Search, shared by its workers.
type searcher struct {
	d        Domain
	cfg      Config
	ctx      context.Context
	deadline time.Time
	epoch    uint32
	tree     *Tree
	reRooted bool

	claimed     atomic.Int64 // iterations handed out (bounds the shared budget)
	completed   atomic.Int64 // iterations that ran to completion
	expanded    atomic.Int64
	rollouts    atomic.Int64
	evals       atomic.Int64
	interrupted atomic.Bool // a worker saw the context end

	mu         sync.Mutex // guards best and bestReward
	best       State
	bestReward float64
}

// result assembles a Result from the shared counters.
func (s *searcher) result() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Result{
		Best:        s.best,
		BestReward:  s.bestReward,
		Iterations:  int(s.completed.Load()),
		Expanded:    int(s.expanded.Load()),
		Rollouts:    int(s.rollouts.Load()),
		Evals:       int(s.evals.Load()),
		Interrupted: s.interrupted.Load(),
		Tree:        s.tree,
		ReRooted:    s.reRooted,
	}
}

// cancelled polls the search context without blocking.
func (s *searcher) cancelled() bool {
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

// expired reports that the wall-clock budget has run out.
func (s *searcher) expired() bool {
	//mctsvet:allow wallclock -- anytime TimeBudget deadline check: stops iteration, never feeds a reward or move choice
	return !s.deadline.IsZero() && !time.Now().Before(s.deadline)
}

// stopped reports that the search must end now — by cancellation or by the
// wall-clock budget. Checked wherever a long loop re-checks cancellation, so
// a TimeBudget cannot be overrun by a large fanout.
func (s *searcher) stopped() bool {
	return s.cancelled() || s.expired()
}

// eval scores a state and folds it into the shared best.
func (s *searcher) eval(st State) float64 {
	s.evals.Add(1)
	r := s.d.Reward(st)
	s.mu.Lock()
	if r > s.bestReward {
		s.bestReward = r
		s.best = st
	}
	s.mu.Unlock()
	return r
}

// work runs iterations on the tree with one worker's rollout rng until the
// budget is spent or the search is stopped.
func (s *searcher) work(root *node, rng *rand.Rand) {
	for {
		if s.cancelled() {
			s.interrupted.Store(true)
			return
		}
		if !s.claim() || s.expired() {
			return
		}
		worked, cut := s.iterate(root, rng)
		switch {
		case cut:
			// Only fully completed iterations count: a cancelled or
			// deadline-cut simulation pass must not inflate the counter (it
			// would skew iters/sec in the bench harness).
		case worked:
			s.completed.Add(1)
			if s.cfg.Progress != nil {
				// Delivered outside s.mu: a slow Progress consumer must not
				// stall the other workers, whose every eval takes the same
				// mutex. Callers that need serialization wrap it themselves.
				s.cfg.Progress(s.result())
			}
		case s.cfg.Iterations > 0:
			// A contention no-op (every child was already claimed by a
			// concurrent worker): nothing was simulated, so the iteration
			// must not be counted — refund the budget claim so another pass
			// does the real work. The window is transient (it needs an
			// expansion racing a selection), so this cannot spin: a settled
			// tree always lands on an unexpanded or terminal node.
			s.claimed.Add(-1)
		}
	}
}

// claim takes one iteration from the shared budget (always granted when
// the search is unbounded). The counter never passes Iterations, so a
// worker returns only once every slot is held, and a slot refunded after a
// contention no-op is re-claimed by the refunding worker itself: the search
// completes exactly Iterations iterations.
func (s *searcher) claim() bool {
	if s.cfg.Iterations <= 0 {
		return true
	}
	for {
		n := s.claimed.Load()
		if n >= int64(s.cfg.Iterations) {
			return false
		}
		if s.claimed.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// iterate runs one select-expand-simulate-backprop cycle. worked reports
// that the cycle did countable work — an expansion or reconciliation, a
// terminal backpropagation, or at least one rollout — rather than finding
// every child claimed by concurrent workers; cut reports that cancellation
// or the wall-clock deadline ended the simulation pass early.
func (s *searcher) iterate(root *node, rng *rand.Rand) (worked, cut bool) {
	// Selection: descend by UCT until an unexpanded node — or a node last
	// expanded by a previous search run (stale epoch), which must be
	// reconciled against the current domain before descending through it.
	// Every node on the path carries this worker's virtual loss until the
	// cycle ends, added only once the node's children have been scored.
	n := root
	for {
		e := n.exp.Load()
		if e == nil || e.epoch != s.epoch || len(e.children) == 0 {
			break
		}
		best := e.children[0]
		bestScore := uct(best, s.cfg.C)
		for _, c := range e.children[1:] {
			if sc := uct(c, s.cfg.C); sc > bestScore {
				best, bestScore = c, sc
			}
		}
		n.vloss.Add(1)
		n = best
	}
	n.vloss.Add(1)
	defer func(leaf *node) {
		for m := leaf; m != nil; m = m.parent {
			m.vloss.Add(-1)
		}
	}(n)

	// Expansion: exactly one worker materializes (or reconciles) the
	// children; late arrivals fall through to simulation against the
	// published set.
	e := n.exp.Load()
	if e == nil || e.epoch != s.epoch {
		n.mu.Lock()
		if e = n.exp.Load(); e == nil || e.epoch != s.epoch {
			e = &expansion{epoch: s.epoch, children: s.derive(n, e)}
			s.expanded.Add(1)
			n.exp.Store(e)
			worked = true
		}
		n.mu.Unlock()
	}

	if len(e.children) == 0 {
		// Terminal: reward the node itself.
		backprop(n, s.eval(n.state))
		return true, false
	}

	// Simulation: one random walk from every new child (paper: "perform a
	// random walk ... from all of its immediate neighbor states"); the CAS
	// claim makes "new" race-free, and the claimed child carries a virtual
	// loss for the duration of its rollout. Large fanouts make this the long
	// pole of an iteration, so both cancellation and the wall-clock deadline
	// are re-checked between children.
	for _, c := range e.children {
		if c.visits.Load() > 0 {
			continue
		}
		if s.stopped() {
			return worked, true
		}
		if !c.simulated.CompareAndSwap(false, true) {
			continue
		}
		c.vloss.Add(1)
		s.eval(c.state) // score the child itself, so good intermediate states are never missed
		backprop(c, s.rollout(c.state, rng))
		c.vloss.Add(-1)
		worked = true
	}
	return worked, false
}

// derive materializes n's immediate neighbors under the current domain as
// child nodes, dropping duplicates. For a reused node expanded by an earlier
// run (stale non-nil) this is a reconciliation: the new neighbor set is
// merged with the stale children by state hash, so surviving children keep
// their visit statistics, states that are no longer reachable drop out, and
// newly legal states join fresh.
func (s *searcher) derive(n *node, stale *expansion) []*node {
	var old map[uint64]*node
	if stale != nil && len(stale.children) > 0 {
		old = make(map[uint64]*node, len(stale.children))
		for _, c := range stale.children {
			old[c.state.Hash()] = c
		}
	}
	seen := map[uint64]bool{n.state.Hash(): true}
	var kids []*node
	for _, st := range s.d.Neighbors(n.state) {
		h := st.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		if oc := old[h]; oc != nil {
			kids = append(kids, oc)
		} else {
			kids = append(kids, &node{state: st, parent: n})
		}
	}
	return kids
}

// rollout performs a uniformly random walk from st with the worker's own rng
// and returns the final state's reward.
func (s *searcher) rollout(st State, rng *rand.Rand) float64 {
	s.rollouts.Add(1)
	cur := st
	sampler, hasSampler := s.d.(Sampler)
	for i := 0; i < s.cfg.MaxRolloutDepth; i++ {
		var next State
		ok := false
		if hasSampler {
			next, ok = sampler.RandomNeighbor(cur, rng)
		} else {
			ns := s.d.Neighbors(cur)
			if len(ns) > 0 {
				next, ok = ns[rng.Intn(len(ns))], true
			}
		}
		if !ok {
			break
		}
		cur = next
	}
	return s.eval(cur)
}

// backprop adds the reward to every state along the path to the root.
func backprop(n *node, r float64) {
	for ; n != nil; n = n.parent {
		n.visits.Add(1)
		n.addTotal(r)
	}
}
