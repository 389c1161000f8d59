// Package pathvector implements the event-driven distributed control plane
// of §4.2: "Nodes learn shortest paths to landmarks and vicinities via a
// single, standard path vector routing protocol. When learning paths, a
// route announcement is accepted into v's routing table if and only if the
// route's destination is a landmark or one of the Θ(sqrt(n log n)) closest
// nodes currently advertised to v. The entire routing table is then
// exported to v's neighbors."
//
// The same engine also runs the two baselines' control planes: plain path
// vector (accept everything — the Fig. 8 "Path-vector" curve) and S4's
// cluster-scoped flooding (accept a destination while the offered distance
// is below the destination's own landmark distance).
//
// Convergence is quiescence of the event queue (triggered updates only).
// Messages are counted per destination announcement or withdrawal sent to
// one neighbor, coalesced per processing instant — the granularity behind
// the paper's "mean messages per node until convergence" (Fig. 8).
//
// State layout. Each node keeps one dst→slot index, a map holding only
// the destinations the node currently knows of; it is the one hashed
// lookup per message, and it keeps per-node state proportional to what
// is stored rather than to n. Everything else is addressed by slot:
//   - a slot holds the best route, the dirty flag for the next flush, the
//     node's vicinity-heap position and the candidates: one route per
//     neighbor that offered one, kept in port order (ports number the
//     sorted adjacency list, so this is neighbor-ID order). The best-route
//     min-fold is a scan in list order that keeps the first of equal
//     distances, so a tie goes to the lowest neighbor ID;
//   - the vicinity is an indexed max-heap of slots keyed on (has a route,
//     dist, id). Its top is the member the "K closest" rule evicts, read in
//     O(1); a landmark member whose routes were all withdrawn sinks below
//     every member with a route and so is never evicted;
//   - slots emptied by a withdrawal are released at the flush that sends
//     it and reused.
//
// Every order-sensitive step (flush, failure handling, pruning) walks
// destinations in ID order, so runs are deterministic. Route paths are
// immutable once built: flush sends them without copying and Clone shares
// them, copying only the slot arrays.
package pathvector

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"disco/internal/graph"
	"disco/internal/sim"
	"disco/internal/vicinity"
)

// Mode selects the acceptance rule.
type Mode int

const (
	// ModeFull accepts every destination: classic path vector, Ω(n) state.
	ModeFull Mode = iota
	// ModeVicinity accepts landmarks plus the K closest currently
	// advertised destinations (NDDisco/Disco, §4.2).
	ModeVicinity
	// ModeLandmarksOnly accepts only landmark destinations (S4/NDDisco
	// phase 1: build the landmark forest).
	ModeLandmarksOnly
	// ModeCluster accepts a destination d while the offered distance is
	// strictly below d's own landmark distance (S4's clusters; requires
	// LMDist, i.e. a completed ModeLandmarksOnly phase).
	ModeCluster
)

// Config parameterizes a protocol run.
type Config struct {
	Mode       Mode
	K          int       // vicinity size including self (ModeVicinity)
	IsLandmark []bool    // landmark flags by node (ModeVicinity/LandmarksOnly/Cluster)
	LMDist     []float64 // per-node landmark distance (ModeCluster)
	Forgetful  bool      // forgetful routing [24]: keep only best candidates
}

type route struct {
	dist float64
	path []graph.NodeID // from the holding node to the destination; nil = no route
}

// cand is one neighbor's offered route to a slot's destination.
type cand struct {
	via graph.NodeID
	r   route
}

// slot is a node's state for one destination it currently knows of.
type slot struct {
	dst   graph.NodeID
	hpos  int32  // index in the node's vicinity heap; -1 = not a member
	dirty bool   // queued for the next flush
	best  route  // best.path == nil: no stored route
	cands []cand // per-neighbor candidates, sorted by via
}

type node struct {
	id            graph.NodeID
	index         map[graph.NodeID]int32 // dst -> slot
	slots         []slot
	free          []int32 // released slots, reused before growing slots
	heap          []int32 // vicinity members as slots, a max-heap on vicWorse
	dirty         []int32 // slots with dirty set, in marking order
	sendScheduled bool
}

// Protocol is one protocol instance over a graph.
type Protocol struct {
	g     *graph.Graph
	eng   *sim.Engine
	cfg   Config
	nodes []node
	dead  []bool // failed links by edge ID; nil = none failed (see dynamics.go)

	// Messages counts announcements + withdrawals, per destination per
	// neighbor (the Fig. 8 unit).
	Messages int64

	out []update // flush scratch
}

// update is one destination's state as flushed to the neighbors: an
// announcement of path, or a withdrawal when path is nil.
type update struct {
	dst  graph.NodeID
	path []graph.NodeID
}

// New creates a protocol instance bound to an engine. Call Start then
// eng.Run.
func New(g *graph.Graph, eng *sim.Engine, cfg Config) *Protocol {
	if cfg.Mode == ModeVicinity && cfg.K < 1 {
		panic("pathvector: ModeVicinity requires K >= 1")
	}
	if cfg.Mode == ModeCluster && cfg.LMDist == nil {
		panic("pathvector: ModeCluster requires LMDist")
	}
	p := &Protocol{g: g, eng: eng, cfg: cfg}
	p.nodes = make([]node, g.N())
	for i := range p.nodes {
		p.nodes[i] = node{id: graph.NodeID(i), index: make(map[graph.NodeID]int32)}
	}
	return p
}

// Clone returns a deep copy of a quiesced protocol instance bound to a
// fresh engine: the routing tables (slots, candidates, vicinity heap) are
// copied so the clone can diverge, while the immutable path slices inside
// routes are shared — announcements always build fresh paths, so shared
// slices are never written through. Cloning a converged instance replaces
// re-running initial convergence per churn trial with an O(state) copy;
// Clone may be called concurrently from multiple workers (it only reads
// p). Cloning an instance that still has scheduled sends is an error —
// they would be lost in the engine swap — returned rather than panicked,
// matching the snapshot layer's Build convention.
func (p *Protocol) Clone(eng *sim.Engine) (*Protocol, error) {
	c := &Protocol{g: p.g, eng: eng, cfg: p.cfg, dead: slices.Clone(p.dead)}
	c.nodes = make([]node, len(p.nodes))
	for i := range p.nodes {
		nd := &p.nodes[i]
		if nd.sendScheduled || len(nd.dirty) > 0 {
			return nil, fmt.Errorf("pathvector: Clone of a non-quiesced instance (node %d has pending sends)", nd.id)
		}
		cn := &c.nodes[i]
		*cn = node{
			id:    nd.id,
			index: maps.Clone(nd.index),
			slots: slices.Clone(nd.slots),
			free:  slices.Clone(nd.free),
			heap:  slices.Clone(nd.heap),
		}
		// Every candidate list moves into one backing array. Each slot's
		// list is capped at its length, so an append reallocates instead
		// of running into the next slot's candidates.
		total := 0
		for _, sl := range nd.slots {
			total += len(sl.cands)
		}
		buf := make([]cand, total)
		for s := range cn.slots {
			k := copy(buf, cn.slots[s].cands)
			cn.slots[s].cands = buf[:k:k]
			buf = buf[k:]
		}
	}
	return c, nil
}

// Start seeds every node's route to itself and schedules the initial
// announcements.
func (p *Protocol) Start() {
	for i := range p.nodes {
		nd := &p.nodes[i]
		s := nd.alloc(nd.id)
		nd.slots[s].best = route{dist: 0, path: []graph.NodeID{nd.id}}
		nd.heapPush(s)
		p.markDirty(nd, s)
	}
}

func (p *Protocol) isLandmark(v graph.NodeID) bool {
	return p.cfg.IsLandmark != nil && p.cfg.IsLandmark[v]
}

// lookup returns nd's slot for dst, or -1 if it has none. It is the one
// hashed read per message.
func (nd *node) lookup(dst graph.NodeID) int32 {
	if s, ok := nd.index[dst]; ok {
		return s
	}
	return -1
}

// alloc gives dst, which has no slot yet, an empty one. It may grow
// nd.slots: pointers into it do not survive the call.
func (nd *node) alloc(dst graph.NodeID) int32 {
	var s int32
	if k := len(nd.free); k > 0 {
		s = nd.free[k-1]
		nd.free = nd.free[:k-1]
		nd.slots[s] = slot{dst: dst, hpos: -1, cands: nd.slots[s].cands[:0]}
	} else {
		s = int32(len(nd.slots))
		nd.slots = append(nd.slots, slot{dst: dst, hpos: -1})
	}
	nd.index[dst] = s
	return s
}

// release frees slot s once it holds nothing: no route, no candidate, no
// vicinity membership and no pending export. This keeps a node's slots
// proportional to what it stores, not to every destination it ever saw.
func (nd *node) release(s int32) {
	sl := &nd.slots[s]
	if sl.best.path != nil || len(sl.cands) > 0 || sl.hpos >= 0 || sl.dirty {
		return
	}
	delete(nd.index, sl.dst)
	nd.free = append(nd.free, s)
}

// accepts decides whether nd may store destination dst at offered distance
// d, per the configured rule, and returns dst's slot, or -1 on rejection.
// It may evict a vicinity member to make room (returning the same decision
// a converged run would).
func (p *Protocol) accepts(nd *node, dst graph.NodeID, d float64) int32 {
	if dst == nd.id {
		return -1
	}
	s := nd.lookup(dst)
	if s >= 0 && (nd.slots[s].best.path != nil || len(nd.slots[s].cands) > 0) {
		return s
	}
	switch p.cfg.Mode {
	case ModeFull:
	case ModeLandmarksOnly:
		if !p.isLandmark(dst) {
			return -1
		}
	case ModeCluster:
		if !p.isLandmark(dst) && !(d < p.cfg.LMDist[dst]) {
			return -1
		}
	case ModeVicinity:
		// Landmarks are always stored; they additionally occupy a
		// vicinity slot when among the K closest, exactly like the static
		// definition (V(v) is the K closest nodes of any kind).
		if a := p.vicAdmit(nd, s, dst, d); a >= 0 {
			return a
		}
		if !p.isLandmark(dst) {
			return -1
		}
	default:
		panic("pathvector: unknown mode")
	}
	if s < 0 {
		s = nd.alloc(dst)
	}
	return s
}

// vicAdmit applies the "K closest currently advertised" rule to dst at
// distance d, whose slot is s (-1 if it has none), evicting the current
// worst member if the newcomer beats it. It returns dst's slot, allocated
// if needed, or -1 if dst is not admitted.
func (p *Protocol) vicAdmit(nd *node, s int32, dst graph.NodeID, d float64) int32 {
	if len(nd.heap) >= p.cfg.K {
		w := nd.worstVic()
		if w < 0 {
			return -1
		}
		if ws := &nd.slots[w]; !(d < ws.best.dist || (d == ws.best.dist && dst < ws.dst)) {
			return -1
		}
		p.evictVic(nd, w)
	}
	if s < 0 {
		s = nd.alloc(dst)
	}
	if nd.slots[s].hpos < 0 {
		nd.heapPush(s)
	}
	return s
}

// worstVic returns the vicinity member with the largest (dist, id) among
// those holding a route, or -1 if none does: the top of the vicinity heap.
func (nd *node) worstVic() int32 {
	if len(nd.heap) == 0 || nd.slots[nd.heap[0]].best.path == nil {
		return -1
	}
	return nd.heap[0]
}

// vicWorse orders the vicinity heap: members holding a route above those
// without one (a landmark whose routes were all withdrawn stays a member
// but is never the one evicted), then by (dist, id), larger first.
func (nd *node) vicWorse(a, b int32) bool {
	x, y := &nd.slots[a], &nd.slots[b]
	hx, hy := x.best.path != nil, y.best.path != nil
	switch {
	case hx != hy:
		return hx
	case hx && x.best.dist != y.best.dist:
		return x.best.dist > y.best.dist
	}
	return x.dst > y.dst
}

func (nd *node) heapSwap(i, j int) {
	h := nd.heap
	h[i], h[j] = h[j], h[i]
	nd.slots[h[i]].hpos = int32(i)
	nd.slots[h[j]].hpos = int32(j)
}

func (nd *node) heapUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !nd.vicWorse(nd.heap[i], nd.heap[parent]) {
			break
		}
		nd.heapSwap(i, parent)
		i, moved = parent, true
	}
	return moved
}

func (nd *node) heapDown(i int) {
	n := len(nd.heap)
	for {
		top, l, r := i, 2*i+1, 2*i+2
		if l < n && nd.vicWorse(nd.heap[l], nd.heap[top]) {
			top = l
		}
		if r < n && nd.vicWorse(nd.heap[r], nd.heap[top]) {
			top = r
		}
		if top == i {
			return
		}
		nd.heapSwap(i, top)
		i = top
	}
}

func (nd *node) heapPush(s int32) {
	nd.slots[s].hpos = int32(len(nd.heap))
	nd.heap = append(nd.heap, s)
	nd.heapUp(len(nd.heap) - 1)
}

func (nd *node) heapRemove(s int32) {
	i, last := int(nd.slots[s].hpos), len(nd.heap)-1
	nd.heapSwap(i, last)
	nd.heap = nd.heap[:last]
	nd.slots[s].hpos = -1
	if i < last {
		nd.heapFix(nd.heap[i])
	}
}

// heapFix restores the heap after slot s's key (its best route) changed.
func (nd *node) heapFix(s int32) {
	if i := int(nd.slots[s].hpos); !nd.heapUp(i) {
		nd.heapDown(i)
	}
}

// evictVic removes slot s from nd's vicinity; unless its destination is a
// landmark its routes are dropped entirely and a withdrawal is scheduled.
func (p *Protocol) evictVic(nd *node, s int32) {
	nd.heapRemove(s)
	sl := &nd.slots[s]
	if p.isLandmark(sl.dst) {
		return // still stored as a landmark route
	}
	sl.cands = sl.cands[:0]
	sl.best = route{}
	p.markDirty(nd, s)
}

// markDirty schedules (once per instant) the export of slot s's state to
// all neighbors.
func (p *Protocol) markDirty(nd *node, s int32) {
	if sl := &nd.slots[s]; !sl.dirty {
		sl.dirty = true
		nd.dirty = append(nd.dirty, s)
	}
	if nd.sendScheduled {
		return
	}
	nd.sendScheduled = true
	p.eng.Schedule(0, func() { p.flush(nd) })
}

// flush sends one coalesced update per dirty destination to every neighbor.
// Paths go out as they are stored: they are immutable, since receive
// builds a fresh path for every route it keeps.
func (p *Protocol) flush(nd *node) {
	nd.sendScheduled = false
	if len(nd.dirty) == 0 {
		return
	}
	out := p.out[:0]
	for _, s := range nd.dirty {
		sl := &nd.slots[s]
		out = append(out, update{dst: sl.dst, path: sl.best.path})
		sl.dirty = false
		nd.release(s)
	}
	nd.dirty = nd.dirty[:0]
	slices.SortFunc(out, func(a, b update) int { return cmp.Compare(a.dst, b.dst) })
	for _, e := range p.g.Neighbors(nd.id) {
		if p.dead != nil && p.dead[e.EID] {
			continue
		}
		to := &p.nodes[e.To]
		lat := e.Weight
		if lat <= 0 {
			lat = 1e-6 // zero-latency links still impose an ordering step
		}
		for _, u := range out {
			p.Messages++
			if u.path != nil {
				p.eng.Schedule(lat, func() { p.receive(to, nd.id, u.dst, u.path) })
			} else {
				p.eng.Schedule(lat, func() { p.withdraw(to, nd.id, u.dst) })
			}
		}
	}
	clear(out)
	p.out = out
}

// receive processes an announcement at node nd from neighbor via.
func (p *Protocol) receive(nd *node, via, dst graph.NodeID, path []graph.NodeID) {
	if dst == nd.id {
		return
	}
	// Loop prevention: the path already contains us.
	for _, x := range path {
		if x == nd.id {
			p.withdraw(nd, via, dst)
			return
		}
	}
	full := make([]graph.NodeID, len(path)+1)
	full[0] = nd.id
	copy(full[1:], path)
	// Distances are recomputed from the full path, summed source-outward,
	// so converged values are bit-identical to the static simulator's
	// Dijkstra (same association order on the same path).
	offered := p.g.PathLength(full)
	s := p.accepts(nd, dst, offered)
	if s < 0 {
		return
	}
	sl := &nd.slots[s]
	c := cand{via: via, r: route{dist: offered, path: full}}
	if i, found := findCand(sl.cands, via); found {
		sl.cands[i] = c
	} else {
		sl.cands = slices.Insert(sl.cands, i, c)
	}
	if p.cfg.Forgetful {
		// Forgetful routing [24]: keep only the best candidate per
		// destination, discarding alternates (trades convergence speed
		// for control-plane state, §4.2).
		sl.cands[0] = sl.cands[bestCand(sl.cands)]
		sl.cands = sl.cands[:1]
	}
	p.reselect(nd, s)
}

// withdraw processes a withdrawal of dst received from via.
func (p *Protocol) withdraw(nd *node, via, dst graph.NodeID) {
	s := nd.lookup(dst)
	if s < 0 || !nd.dropCand(s, via) {
		return
	}
	p.reselect(nd, s)
}

// dropCand removes via's candidate from slot s and reports whether it had
// one.
func (nd *node) dropCand(s int32, via graph.NodeID) bool {
	sl := &nd.slots[s]
	i, found := findCand(sl.cands, via)
	if found {
		sl.cands = slices.Delete(sl.cands, i, i+1)
	}
	return found
}

// findCand returns the position of via's candidate in cs, or where it
// would be inserted, and whether it is there. The lists are at most one
// entry per neighbor, so a linear scan beats a binary search.
func findCand(cs []cand, via graph.NodeID) (int, bool) {
	for i, c := range cs {
		if c.via >= via {
			return i, c.via == via
		}
	}
	return len(cs), false
}

// bestCand returns the index of the shortest candidate; candidates are
// sorted by via, so the first of equal distances has the lowest via.
// cs must be non-empty.
func bestCand(cs []cand) int {
	b := 0
	for i := 1; i < len(cs); i++ {
		if cs[i].r.dist < cs[b].r.dist {
			b = i
		}
	}
	return b
}

// reselect recomputes nd's best route for slot s and triggers
// announcements on change.
func (p *Protocol) reselect(nd *node, s int32) {
	sl := &nd.slots[s]
	old := sl.best
	had := old.path != nil
	if len(sl.cands) == 0 {
		if had {
			sl.best = route{}
			if sl.hpos >= 0 {
				if p.isLandmark(sl.dst) {
					nd.heapFix(s)
				} else {
					nd.heapRemove(s)
				}
			}
			p.markDirty(nd, s)
		}
		return
	}
	bestR := sl.cands[bestCand(sl.cands)].r
	// A stored destination outside the vicinity (a far landmark) may
	// qualify for a slot — on route improvement, or when vicinity members
	// worsened after a failure and a refresh re-offered this one. This
	// must run even when the best route itself is unchanged.
	if p.cfg.Mode == ModeVicinity && sl.hpos < 0 {
		p.vicAdmit(nd, s, sl.dst, bestR.dist)
	}
	if had && old.dist == bestR.dist && slices.Equal(old.path, bestR.path) {
		return
	}
	sl.best = bestR
	if sl.hpos >= 0 {
		nd.heapFix(s)
	}
	p.markDirty(nd, s)
}

// bestOf returns v's stored route to dst; its path is nil if none.
func (p *Protocol) bestOf(v, dst graph.NodeID) route {
	nd := &p.nodes[v]
	if s := nd.lookup(dst); s >= 0 {
		return nd.slots[s].best
	}
	return route{}
}

// BestDist returns v's converged distance to dst (+Inf if unknown).
func (p *Protocol) BestDist(v, dst graph.NodeID) float64 {
	if r := p.bestOf(v, dst); r.path != nil {
		return r.dist
	}
	return graph.Inf
}

// BestPath returns v's converged path to dst or nil.
func (p *Protocol) BestPath(v, dst graph.NodeID) []graph.NodeID {
	return slices.Clone(p.bestOf(v, dst).path)
}

// VicinitySet assembles v's converged vicinity as a vicinity.Set for
// comparison against the static simulator.
func (p *Protocol) VicinitySet(v graph.NodeID) *vicinity.Set {
	nd := &p.nodes[v]
	entries := make([]vicinity.Entry, 0, len(nd.heap))
	for _, s := range nd.heap {
		sl := &nd.slots[s]
		parent := graph.None
		if path := sl.best.path; len(path) >= 2 {
			// Parent of dst on the path from v: the node before dst.
			parent = path[len(path)-2]
		}
		entries = append(entries, vicinity.Entry{Node: sl.dst, Parent: parent, Dist: sl.best.dist})
	}
	return vicinity.FromEntries(v, entries)
}

// VicinityMembers returns the converged vicinity membership of v, sorted.
func (p *Protocol) VicinityMembers(v graph.NodeID) []graph.NodeID {
	nd := &p.nodes[v]
	out := make([]graph.NodeID, len(nd.heap))
	for i, s := range nd.heap {
		out[i] = nd.slots[s].dst
	}
	slices.Sort(out)
	return out
}

// DataEntries returns v's data-plane entry count (stored destinations).
func (p *Protocol) DataEntries(v graph.NodeID) int {
	t := 0
	for _, sl := range p.nodes[v].slots {
		if sl.best.path != nil {
			t++
		}
	}
	return t
}

// ControlEntries returns v's control-plane entry count: all per-neighbor
// candidates (Θ(δ·sqrt(n log n)) without forgetful routing, §4.2).
func (p *Protocol) ControlEntries(v graph.NodeID) int {
	t := 0
	for _, sl := range p.nodes[v].slots {
		t += len(sl.cands)
	}
	return t
}

// LMDistances extracts every node's distance to its nearest landmark from a
// converged ModeLandmarksOnly (or ModeVicinity) run — the input to S4's
// cluster phase.
func (p *Protocol) LMDistances() []float64 {
	out := make([]float64, len(p.nodes))
	for v := range p.nodes {
		best := graph.Inf
		for _, sl := range p.nodes[v].slots {
			if sl.best.path != nil && p.isLandmark(sl.dst) && sl.best.dist < best {
				best = sl.best.dist
			}
		}
		if p.isLandmark(graph.NodeID(v)) {
			best = 0
		}
		out[v] = best
	}
	return out
}

// String describes the configuration.
func (c Config) String() string {
	switch c.Mode {
	case ModeFull:
		return "path-vector(full)"
	case ModeVicinity:
		return fmt.Sprintf("path-vector(vicinity K=%d)", c.K)
	case ModeLandmarksOnly:
		return "path-vector(landmarks)"
	case ModeCluster:
		return "path-vector(cluster)"
	}
	return "path-vector(?)"
}
