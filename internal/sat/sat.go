// Package sat is a from-scratch CDCL SAT solver: two-watched-literal
// propagation, first-UIP conflict analysis, VSIDS branching with phase
// saving, Luby restarts, and activity-based learned-clause reduction. It is
// the decision procedure underneath the bit-vector validator (the role STP
// plays in §5.2 of the paper).
//
// Clause layout. Every clause lives in one flat []Lit arena: a header word
// (the literal count shifted left once, low bit set for a learned clause)
// followed by the literals, and, for a learned clause only, two more words
// holding its float64 activity. A clause reference (cref) is the arena
// offset of its first literal, so the header sits at cref-1; -1 means "no
// clause". Propagation reads a long clause's size and literals from
// adjacent words, and keeps its two watched literals in slots 0 and 1, the
// implied literal of a reason clause in slot 0.
//
// Binary clauses are implicit in their watchers: a watcher whose cref is
// negative refers to the binary clause at arena offset ^cref, and its
// blocker is always the clause's other literal, so propagating a binary
// clause never reads the arena. Its two literals are reordered only when
// it becomes the conflict, to [other, falsified]; as a reason its implied
// literal is identified by comparison, not by position.
//
// reduceDB compacts the arena in place, in clause order, rebuilds the
// watch lists and moves the reasons of the root-level trail to the new
// offsets. Assignments are stored per literal, so a literal's value is a
// single load.
package sat

import (
	"fmt"
	"math"
)

// Lit is a literal: variable index shifted left once, low bit = negated.
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 != 0 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// learnedBit marks a learned clause in its header word.
const learnedBit = 1

type watcher struct {
	cref    int32 // arena offset of the clause; ^offset for a binary clause
	blocker Lit   // a literal of the clause, always the other one of a binary
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// Verifier queries each build a fresh Solver, so there is no incremental or
// assumption interface.
type Solver struct {
	arena      []Lit // clause headers, literals and learned activities
	numClauses int
	watches    [][]watcher // indexed by literal

	value    []lbool // indexed by literal
	level    []int32
	reason   []int32 // clause offset or -1
	phase    []bool  // saved phase
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	claInc     float64
	learnedCap int

	seen      []bool
	conflicts int64

	// Scratch buffers reused across AddClause and analyze calls.
	addBuf, learnt []Lit
	toClear        []int

	// Budget bounds the number of conflicts explored by one Solve call;
	// exceeding it yields Unknown. Zero means unlimited.
	Budget int64

	// Stop, when set, is polled periodically during search (every 256
	// conflicts); returning true aborts the solve with Unknown. It is how
	// callers thread context cancellation into a running proof.
	Stop func() bool

	unsat bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, learnedCap: 8192}
	s.order = &varHeap{solver: s}
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// Conflicts returns the total conflicts encountered so far.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// NumClauses returns the number of clauses currently in the database.
// Read before Solve it is the encoded problem size (the observability
// metric threaded into proof-cost histograms); after Solve it also counts
// surviving learned clauses.
func (s *Solver) NumClauses() int { return s.numClauses }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.value = append(s.value, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) lbool { return s.value[l] }

// AddClause adds a clause; it must be called before Solve (root level).
// Returns false if the formula became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	out := s.addBuf[:0]
	for _, l := range lits {
		switch s.rootValue(l) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueueRoot(out[0]) {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(out, false)
	return true
}

// rootValue is the literal's value considering only root-level assignments.
func (s *Solver) rootValue(l Lit) lbool {
	if s.level[l.Var()] != 0 {
		return lUndef
	}
	return s.litValue(l)
}

// enqueueRoot asserts a literal at the root level and propagates.
func (s *Solver) enqueueRoot(l Lit) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.uncheckedEnqueue(l, -1)
	return s.propagate() == -1
}

// attachClause appends a clause of two or more literals to the arena
// (a learned one with zero activity) and watches it.
func (s *Solver) attachClause(lits []Lit, learned bool) int32 {
	hdr := Lit(len(lits) << 1)
	if learned {
		hdr |= learnedBit
	}
	s.arena = append(s.arena, hdr)
	cref := int32(len(s.arena))
	s.arena = append(s.arena, lits...)
	if learned {
		s.arena = append(s.arena, 0, 0)
	}
	s.numClauses++
	s.watchClause(cref)
	return cref
}

// watchClause adds the watchers of the clause at cref for its first two
// literals.
func (s *Solver) watchClause(cref int32) {
	c0, c1 := s.arena[cref], s.arena[cref+1]
	w := cref
	if s.clauseSize(cref) == 2 {
		w = ^cref
	}
	s.watches[c0.Not()] = append(s.watches[c0.Not()], watcher{w, c1})
	s.watches[c1.Not()] = append(s.watches[c1.Not()], watcher{w, c0})
}

func (s *Solver) clauseSize(cref int32) int32 { return int32(s.arena[cref-1] >> 1) }

func (s *Solver) isLearned(cref int32) bool { return s.arena[cref-1]&learnedBit != 0 }

func (s *Solver) clauseLits(cref int32) []Lit {
	return s.arena[cref : cref+s.clauseSize(cref)]
}

// clauseActivity reads a learned clause's activity, stored in the two
// words after its literals.
func (s *Solver) clauseActivity(cref int32) float64 {
	i := cref + s.clauseSize(cref)
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

func (s *Solver) setClauseActivity(cref int32, a float64) {
	i := cref + s.clauseSize(cref)
	bits := math.Float64bits(a)
	s.arena[i], s.arena[i+1] = Lit(uint32(bits)), Lit(uint32(bits>>32))
}

// nextClause returns the offset of the clause that follows the one at cref
// in the arena.
func (s *Solver) nextClause(cref int32) int32 {
	next := cref + s.clauseSize(cref) + 1
	if s.isLearned(cref) {
		next += 2
	}
	return next
}

func (s *Solver) uncheckedEnqueue(l Lit, reason int32) {
	v := l.Var()
	s.value[l], s.value[l.Not()] = lTrue, lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the offset of a
// conflicting clause or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falseLit := p.Not()
		ws := s.watches[p]
		kept := ws[:0]
		conflict := int32(-1)
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			bval := s.litValue(w.blocker)
			if bval == lTrue {
				kept = append(kept, w)
				continue
			}
			if w.cref < 0 {
				// Binary clause: the blocker is the other literal.
				kept = append(kept, w)
				cref := ^w.cref
				if bval == lFalse {
					s.arena[cref], s.arena[cref+1] = w.blocker, falseLit
					conflict = cref
					kept = append(kept, ws[wi+1:]...)
					s.qhead = len(s.trail)
					break
				}
				s.uncheckedEnqueue(w.blocker, cref)
				continue
			}
			cref := w.cref
			c := s.arena[cref : cref+s.clauseSize(cref)]
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			first := c[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				kept = append(kept, watcher{cref, first})
				continue
			}
			found := false
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1].Not()] = append(s.watches[c[1].Not()],
						watcher{cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, watcher{cref, first})
			if s.litValue(first) == lFalse {
				conflict = cref
				// Copy the remaining watchers and stop.
				kept = append(kept, ws[wi+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, cref)
		}
		s.watches[p] = kept
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level. The returned
// slice is scratch space, valid until the next call.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	toClear := s.toClear[:0]
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1

	for {
		if s.isLearned(confl) {
			s.bumpClause(confl)
		}
		for _, q := range s.clauseLits(confl) {
			if q == p {
				continue // the literal this reason clause implied
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}

	}
	learnt[0] = p.Not()

	// Cheap clause minimisation: drop literals whose antecedents are all
	// already in the clause.
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == -1 || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learnt, s.toClear = learnt, toClear
	return learnt, btLevel
}

// litRedundant reports whether every antecedent of l is already seen (a
// one-step self-subsumption test).
func (s *Solver) litRedundant(l Lit) bool {
	cref := s.reason[l.Var()]
	if cref < 0 {
		return false
	}
	for _, q := range s.clauseLits(cref) {
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Neg()
		s.value[l], s.value[l.Not()] = lUndef, lUndef
		s.reason[v] = -1
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cref int32) {
	a := s.clauseActivity(cref) + s.claInc
	s.setClauseActivity(cref, a)
	if a > 1e20 {
		s.rescaleClauseActivity()
	}
}

// rescaleClauseActivity scales every learned clause's activity, and the
// increment, down by 1e-20.
func (s *Solver) rescaleClauseActivity() {
	for cref := int32(1); int(cref) < len(s.arena); cref = s.nextClause(cref) {
		if s.isLearned(cref) {
			s.setClauseActivity(cref, s.clauseActivity(cref)*1e-20)
		}
	}
	s.claInc *= 1e-20
}

// pickBranch returns the highest-activity unassigned variable, or -1.
func (s *Solver) pickBranch() int {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.value[MkLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes low-activity learned clauses once the database grows
// past its cap. Reason clauses and binary clauses are kept. It runs at the
// root level: it compacts the arena in place, keeping clause order, and
// rebuilds the watch lists.
func (s *Solver) reduceDB() {
	nLearned := 0
	var actSum float64
	for cref := int32(1); int(cref) < len(s.arena); cref = s.nextClause(cref) {
		if s.isLearned(cref) {
			nLearned++
			actSum += s.clauseActivity(cref)
		}
	}
	if nLearned < s.learnedCap {
		return
	}
	threshold := actSum / float64(nLearned)

	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	end := int32(0) // end of the compacted prefix
	for cref := int32(1); int(cref) < len(s.arena); {
		next := s.nextClause(cref)
		size := s.clauseSize(cref)
		if s.isLearned(cref) && size > 2 && s.clauseActivity(cref) < threshold &&
			s.reason[s.arena[cref].Var()] != cref {
			s.numClauses--
			cref = next
			continue
		}
		to := end + 1
		if to != cref {
			// Only the implied literal, slot 0 of a long clause and either
			// slot of a binary one, can name this clause as its reason.
			n := int32(1)
			if size == 2 {
				n = 2
			}
			for _, l := range s.arena[cref : cref+n] {
				if s.reason[l.Var()] == cref {
					s.reason[l.Var()] = to
				}
			}
			copy(s.arena[end:], s.arena[cref-1:next-1])
		}
		s.watchClause(to)
		end += next - cref
		cref = next
	}
	s.arena = s.arena[:end]
	s.learnedCap += s.learnedCap / 2
}

// luby returns the x-th element (1-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(x int64) int64 {
	x--
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return 1 << seq
}

// Solve decides the formula.
func (s *Solver) Solve() Status {
	st, _ := s.SolveModel()
	return st
}

// SolveModel decides the formula and, when satisfiable, returns a copy of
// the satisfying assignment indexed by variable.
func (s *Solver) SolveModel() (Status, []bool) {
	if s.unsat {
		return Unsat, nil
	}
	st := s.search()
	var model []bool
	if st == Sat {
		model = make([]bool, s.NumVars())
		for v := range model {
			model[v] = s.Value(v)
		}
	}
	s.backtrack(0)
	if st == Unsat {
		s.unsat = true
	}
	return st, model
}

// search is the CDCL main loop.
func (s *Solver) search() Status {
	if s.propagate() != -1 {
		return Unsat
	}
	restarts := int64(1)
	conflictsAtStart := s.conflicts
	limit := luby(restarts) * 128

	for {
		confl := s.propagate()
		if confl >= 0 {
			s.conflicts++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.backtrack(bt)
			if len(learnt) == 1 {
				s.backtrack(0)
				if !s.enqueueRoot(learnt[0]) {
					return Unsat
				}
			} else {
				// The new clause's first bump: a rescale it triggers
				// leaves the new clause itself unscaled.
				act := s.claInc
				if act > 1e20 {
					s.rescaleClauseActivity()
				}
				cref := s.attachClause(learnt, true)
				s.setClauseActivity(cref, act)
				s.uncheckedEnqueue(learnt[0], cref)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.Budget > 0 && s.conflicts-conflictsAtStart > s.Budget {
				return Unknown
			}
			if s.Stop != nil && s.conflicts&255 == 0 && s.Stop() {
				return Unknown
			}
			if s.conflicts-conflictsAtStart > limit {
				restarts++
				limit += luby(restarts) * 128
				s.backtrack(0)
				s.reduceDB()
			}
			continue
		}

		v := s.pickBranch()
		if v < 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), -1)
	}
}

// Value returns the model value of variable v after a Sat verdict from the
// most recent search. Prefer SolveModel, which snapshots the assignment.
func (s *Solver) Value(v int) bool { return s.value[MkLit(v, false)] == lTrue }

// varHeap is a max-heap over variable activities.
type varHeap struct {
	solver *Solver
	heap   []int
	pos    []int
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b int) bool {
	return h.solver.activity[h.heap[a]] > h.solver.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if h.pos[v] != -1 {
		h.up(h.pos[v])
	}
}
