// Package pta implements a Steensgaard-style — flow-insensitive,
// interprocedural, unification-based — points-to and escape analysis over
// the machine-independent IR, with a call graph derived from the program's
// invoke sites.
//
// Every abstract value class is an element of a union-find structure
// (an ECR, "equivalence class representative"). Assignments unify the
// classes of their two sides, so the whole analysis is a single linear
// pass over the IR plus near-constant-time union/find operations — the
// almost-linear bound of Steensgaard's POPL'96 formulation, which matters
// here because the analysis runs inside compile/load paths.
//
// The abstract locations are:
//
//   - TypeRoot(T): the class of references to instances of object type T.
//     Every `new T` site attaches its label here, and the self reference
//     of T's operations is this class — sound because a T operation's
//     self is always a T instance.
//   - Field(T,i): the class of values held by data slot i of any T
//     instance. Loads push it, stores unify into it, and constructor
//     argument i unifies with it (the kernel stores `new T(args)`
//     positionally into the first data slots).
//   - Var(f,v): the class of values held by frame slot v of function f.
//   - elem(c): the class of elements of arrays referenced by class c,
//     created on demand and merged when classes merge (the classic
//     pointee join of the unification solver).
//
// The call graph resolves an invoke site by operation name across all
// object types — an over-approximation that the statically typed source
// nearly always makes exact. Receiver, argument and result classes unify
// with the callee's self, parameter and result-slot classes.
//
// Escape facts fall out of the same structure: the classes of pointer
// object fields, pointer array elements and pointer result slots are the
// capture seeds (values stored there outlive the storing activation); a
// frame slot escapes when its class has been unified with a seed.
// Strings are exempt — they are immutable and cross the wire by value,
// so a "captured" string constrains nothing.
package pta

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Stats counts the solver's work, for the near-linearity benchmarks and
// regression tests: total generated constraints, performed unions, and
// find operations.
type Stats struct {
	Constraints int
	Unions      int
	Finds       int
}

// Work is a scalar summary of solver effort, used to assert near-linear
// scaling (work on an n×-duplicated program stays O(n)).
func (s Stats) Work() int { return s.Constraints + s.Unions + s.Finds }

// Site is one allocation site: a reachable New or NewArray instruction.
type Site struct {
	ID       int
	Object   string // enclosing object type
	Func     string // enclosing function
	PC       int    // IR instruction index
	TypeName string // created type ("Buffer", or "Array[i]" etc.)
}

// Label renders the site in the stable form used by reports and cohorts.
func (s Site) Label() string {
	return fmt.Sprintf("%s@%d new %s", s.Func, s.PC, s.TypeName)
}

// Cohort is the static group-migration closure of one allocation site:
// the site itself plus every allocation site reachable from it through
// object fields and array elements. Objects in one cohort tend to move
// together, so cohorts are the candidate units for batched group
// migration.
type Cohort struct {
	Site    Site
	Members []Site // member sites in site order, including the site itself
}

// PinnedReach is one node-pinned class a process thread can reach: the
// object types whose references it holds (none when only arrays) and the
// fix sites ("Func@pc") that pin it, both sorted.
type PinnedReach struct {
	Classes []string
	Fixes   []string
}

// String renders the reach as "T1/T2 (fixed at fn@pc, ...)", the form of
// both the analysis report and vet's immobile-reach finding.
func (p PinnedReach) String() string {
	names := "array"
	if len(p.Classes) > 0 {
		names = strings.Join(p.Classes, "/")
	}
	return fmt.Sprintf("%s (fixed at %s)", names, strings.Join(p.Fixes, ", "))
}

// Result holds the solved analysis for one program.
type Result struct {
	Stats Stats

	prog    *ir.Program
	parent  []int32
	rank    []byte
	elem    []int32 // per-root element class, -1 if none
	scalar  int32
	str     int32
	tyRoot  []int32   // per object index
	fieldV  [][]int32 // per object index, per data slot
	varV    [][]int32 // per global func id, per frame slot
	funcs   []*ir.Func
	funcObj []int            // owning object index per global func id
	fidOf   map[string]int   // "Obj.func" -> global func id
	byOp    map[string][]int // operation name -> func ids declaring it, ascending

	sites   []Site
	siteECR []int32

	capturedIDs []int32
	pinnedIDs   []int32
	pinSites    map[int32][]string // pinned ECR id -> "Func@pc" fix sites

	callees map[int][]int // global func id -> sorted callee func ids

	// Post-solve caches.
	capturedSet map[int32]bool
	pinnedSet   map[int32]bool
	strRoot     int32
	labelsBy    map[int32][]int // class root -> site IDs, sorted
	typesBy     map[int32][]int // class root -> object indices, sorted
}

// ---------------------------------------------------------------- union-find

func (r *Result) fresh() int32 {
	id := int32(len(r.parent))
	r.parent = append(r.parent, id)
	r.rank = append(r.rank, 0)
	r.elem = append(r.elem, -1)
	return id
}

func (r *Result) find(x int32) int32 {
	r.Stats.Finds++
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]] // path halving
		x = r.parent[x]
	}
	return x
}

// unify merges the classes of x and y, and — transitively — the classes
// of their array elements (the solver's pointee join), iteratively so
// degenerate chains cannot overflow the stack.
func (r *Result) unify(x, y int32) {
	type pair struct{ x, y int32 }
	work := []pair{{x, y}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		rx, ry := r.find(p.x), r.find(p.y)
		if rx == ry {
			continue
		}
		r.Stats.Unions++
		if r.rank[rx] < r.rank[ry] {
			rx, ry = ry, rx
		}
		r.parent[ry] = rx
		if r.rank[rx] == r.rank[ry] {
			r.rank[rx]++
		}
		if r.elem[ry] >= 0 {
			if r.elem[rx] >= 0 {
				work = append(work, pair{r.elem[rx], r.elem[ry]})
			} else {
				r.elem[rx] = r.elem[ry]
			}
		}
	}
}

// getElem returns (creating on demand) the element class of arrays
// referenced by class e.
func (r *Result) getElem(e int32) int32 {
	root := r.find(e)
	if r.elem[root] < 0 {
		r.elem[root] = r.fresh()
	}
	return r.elem[root]
}

// ------------------------------------------------------------------ analysis

// Analyze solves the whole-program analysis. It fails only when a
// function's IR does not verify — compiled programs always do.
func Analyze(p *ir.Program) (*Result, error) {
	r := &Result{
		prog:     p,
		fidOf:    map[string]int{},
		byOp:     map[string][]int{},
		callees:  map[int][]int{},
		pinSites: map[int32][]string{},
	}
	// Size the union-find for about one class per slot and instruction (no
	// instruction makes more than two), so it rarely grows.
	size := 2
	for _, obj := range p.Objects {
		size += 1 + len(obj.VarKinds)
		for _, f := range obj.Funcs {
			size += f.NumVars + len(f.Code)
		}
	}
	r.parent = make([]int32, 0, size)
	r.rank = make([]byte, 0, size)
	r.elem = make([]int32, 0, size)
	r.scalar = r.fresh()
	r.str = r.fresh()

	// Location universe.
	for oi, obj := range p.Objects {
		r.tyRoot = append(r.tyRoot, r.fresh())
		fv := make([]int32, len(obj.VarKinds))
		for i, k := range obj.VarKinds {
			fv[i] = r.fresh()
			if k == ir.VKPtr {
				r.capturedIDs = append(r.capturedIDs, fv[i])
			}
		}
		r.fieldV = append(r.fieldV, fv)
		for _, f := range obj.Funcs {
			fid := len(r.funcs)
			r.funcs = append(r.funcs, f)
			r.funcObj = append(r.funcObj, oi)
			r.fidOf[f.Name] = fid
			r.byOp[f.OpName] = append(r.byOp[f.OpName], fid)
			vv := make([]int32, f.NumVars)
			for v := 0; v < f.NumVars; v++ {
				vv[v] = r.fresh()
				if v >= f.NumParams && v < f.NumParams+f.NumResults && f.VarKinds[v] == ir.VKPtr {
					r.capturedIDs = append(r.capturedIDs, vv[v])
				}
			}
			r.varV = append(r.varV, vv)
		}
	}

	var sc genScratch
	for fid := range r.funcs {
		if err := r.genFunc(fid, &sc); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// genFunc generates and solves the constraints of one function: a single
// visit of every reachable instruction propagating an abstract ECR stack,
// with elementwise unification at control-flow joins. One visit suffices
// because every constraint is a unification — symmetric and idempotent —
// so later class growth at a join needs no re-propagation.
func (r *Result) genFunc(fid int, sc *genScratch) error {
	f := r.funcs[fid]
	oi := r.funcObj[fid]
	obj := r.prog.Objects[oi]
	fi, _, err := f.Facts(obj.VarKinds)
	if err != nil {
		return fmt.Errorf("pta: %s.%s: %w", obj.Name, f.Name, err)
	}

	// Allocation sites and the call graph come from a deterministic
	// pre-scan in instruction order.
	siteAt := make(map[int]int32)
	var calleeSet []int
	for pc, in := range f.Code {
		if !fi.Reach[pc] {
			continue
		}
		switch in.Op {
		case ir.New:
			name := f.Strings[in.S]
			r.Stats.Constraints++
			site := Site{ID: len(r.sites), Object: obj.Name,
				Func: f.Name, PC: pc, TypeName: name}
			var ecr int32
			if ti := r.objIndex(name); ti >= 0 {
				ecr = r.tyRoot[ti]
			} else {
				ecr = r.fresh()
			}
			r.sites = append(r.sites, site)
			r.siteECR = append(r.siteECR, ecr)
			siteAt[pc] = ecr
		case ir.NewArray:
			site := Site{ID: len(r.sites), Object: obj.Name,
				Func: f.Name, PC: pc, TypeName: "Array[" + in.K.String() + "]"}
			ecr := r.fresh()
			if in.K == ir.VKPtr {
				r.capturedIDs = append(r.capturedIDs, r.getElem(ecr))
			}
			r.sites = append(r.sites, site)
			r.siteECR = append(r.siteECR, ecr)
			siteAt[pc] = ecr
		case ir.Call:
			for _, cand := range r.calleesOf(f.Strings[in.S]) {
				calleeSet = append(calleeSet, cand)
			}
		}
	}
	sort.Ints(calleeSet)
	r.callees[fid] = dedupInts(calleeSet)

	n := len(f.Code)
	stackAt := slices.Grow(sc.stackAt[:0], n)[:n]
	clear(stackAt)
	visited := slices.Grow(sc.visited[:0], n)[:n]
	clear(visited)
	sc.stackAt, sc.visited = stackAt, visited
	if cap(sc.arena) == 0 {
		sc.arena = make([]int32, 0, 2*n)
	}
	sc.arena = sc.arena[:0]
	stackAt[0] = sc.arena[:0:0]
	work := append(sc.work[:0], 0)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[pc] {
			continue
		}
		visited[pc] = true
		sf := stackAt[pc]
		in := f.Code[pc]
		pop, push := ir.StackEffect(in)
		if in.Op == ir.Call {
			push = 1
		}
		ops := sf[len(sf)-pop:]
		out := append(sc.out[:0], sf[:len(sf)-pop]...)
		pushed := r.scalar
		switch in.Op {
		case ir.PushStr, ir.SysStrOf, ir.SysConcat:
			pushed = r.str
		case ir.PushNil:
			pushed = r.fresh()
		case ir.PushSelf:
			pushed = r.tyRoot[oi]
		case ir.LoadVar:
			pushed = r.varV[fid][in.A]
		case ir.StoreVar:
			r.Stats.Constraints++
			r.unify(r.varV[fid][in.A], ops[0])
		case ir.LoadMine:
			pushed = r.fieldV[oi][in.A]
		case ir.StoreMine:
			r.Stats.Constraints++
			r.unify(r.fieldV[oi][in.A], ops[0])
		case ir.ALoad:
			r.Stats.Constraints++
			pushed = r.getElem(ops[0])
		case ir.AStore:
			r.Stats.Constraints++
			r.unify(r.getElem(ops[0]), ops[2])
		case ir.New:
			argc := int(in.A)
			if ti := r.objIndex(f.Strings[in.S]); ti >= 0 {
				for j := 0; j < argc && j < len(r.fieldV[ti]); j++ {
					r.Stats.Constraints++
					r.unify(r.fieldV[ti][j], ops[j])
				}
			}
			pushed = siteAt[pc]
		case ir.NewArray:
			pushed = siteAt[pc]
		case ir.Call:
			res := r.fresh()
			recv := ops[0]
			args := ops[1:]
			for _, gid := range r.calleesOf(f.Strings[in.S]) {
				g := r.funcs[gid]
				r.Stats.Constraints++
				r.unify(recv, r.tyRoot[r.funcObj[gid]])
				for j := 0; j < g.NumParams && j < len(args); j++ {
					r.unify(r.varV[gid][j], args[j])
				}
				if g.NumResults > 0 {
					r.unify(res, r.varV[gid][g.NumParams])
				}
			}
			pushed = res
		case ir.SysFix, ir.SysRefix:
			r.Stats.Constraints++
			r.pinnedIDs = append(r.pinnedIDs, ops[0])
			where := fmt.Sprintf("%s@%d", f.Name, pc)
			if !containsStr(r.pinSites[ops[0]], where) {
				r.pinSites[ops[0]] = append(r.pinSites[ops[0]], where)
			}
		}
		for i := 0; i < push; i++ {
			out = append(out, pushed)
		}
		sc.out = out
		s0, s1, ns := ir.Succs(f, pc)
		for s, k := s0, 0; k < ns; s, k = s1, k+1 {
			if stackAt[s] == nil {
				if len(sc.arena)+len(out) > cap(sc.arena) {
					sc.arena = make([]int32, 0, max(2*cap(sc.arena), len(out)))
				}
				lo := len(sc.arena)
				sc.arena = append(sc.arena, out...)
				stackAt[s] = sc.arena[lo:len(sc.arena):len(sc.arena)]
				work = append(work, s)
				continue
			}
			for i := range out {
				r.unify(stackAt[s][i], out[i])
			}
			if !visited[s] {
				work = append(work, s)
			}
		}
	}
	sc.work = work
	return nil
}

// genScratch is genFunc's working storage, reused from one function to the
// next.
type genScratch struct {
	// stackAt[pc] is the ECR stack before pc (nil: not reached yet). Its
	// rows are cut from arena; a full arena is replaced by one twice as
	// large, so the rows already cut stay valid.
	stackAt [][]int32
	arena   []int32
	out     []int32 // the stack after the instruction being visited
	visited []bool
	work    []int
}

func (r *Result) objIndex(name string) int {
	for i, o := range r.prog.Objects {
		if o.Name == name {
			return i
		}
	}
	return -1
}

// calleesOf resolves an operation name to every function it may invoke:
// each object type declaring an operation of that name, in func-id order.
// Internal functions ($init, $initially, $process) are never invoke
// targets.
func (r *Result) calleesOf(op string) []int {
	if strings.HasPrefix(op, "$") {
		return nil
	}
	return r.byOp[op]
}

// finish builds the post-solve caches: per-class site labels, type
// memberships, and the captured/pinned class sets.
func (r *Result) finish() {
	r.capturedSet = map[int32]bool{}
	for _, id := range r.capturedIDs {
		r.capturedSet[r.find(id)] = true
	}
	r.pinnedSet = map[int32]bool{}
	for _, id := range r.pinnedIDs {
		r.pinnedSet[r.find(id)] = true
	}
	r.strRoot = r.find(r.str)
	r.labelsBy = map[int32][]int{}
	for i := range r.sites {
		root := r.find(r.siteECR[i])
		r.labelsBy[root] = append(r.labelsBy[root], i)
	}
	r.typesBy = map[int32][]int{}
	for oi := range r.prog.Objects {
		root := r.find(r.tyRoot[oi])
		r.typesBy[root] = append(r.typesBy[root], oi)
	}
}

// ------------------------------------------------------------------- queries

// SlotEscapes reports whether frame slot v of the function with
// qualified name fn ("Obj.op") holds references that may outlive the
// activation: its class has been unified with a pointer object field,
// pointer array element, or pointer result slot. Strings never escape
// (immutable, copied by value on the wire).
func (r *Result) SlotEscapes(fn string, v int) bool {
	fid, ok := r.fidOf[fn]
	if !ok || v >= len(r.varV[fid]) {
		return false
	}
	root := r.find(r.varV[fid][v])
	return r.capturedSet[root] && root != r.strRoot
}

// reachClasses computes the closure of class roots reachable from the
// seeds through object fields and array elements.
func (r *Result) reachClasses(seeds []int32) map[int32]bool {
	seen := map[int32]bool{}
	var work []int32
	add := func(id int32) {
		root := r.find(id)
		if !seen[root] {
			seen[root] = true
			work = append(work, root)
		}
	}
	for _, s := range seeds {
		add(s)
	}
	for len(work) > 0 {
		root := work[len(work)-1]
		work = work[:len(work)-1]
		if e := r.elem[root]; e >= 0 {
			add(e)
		}
		for _, oi := range r.typesBy[root] {
			for i, k := range r.prog.Objects[oi].VarKinds {
				if k == ir.VKPtr {
					add(r.fieldV[oi][i])
				}
			}
		}
	}
	return seen
}

// threadSeeds returns the classes a thread rooted at Obj's process can
// hold directly: the process self plus every frame slot (and self) of
// every function transitively invocable from it, per the call graph.
func (r *Result) threadSeeds(objName string) []int32 {
	fid, ok := r.fidOf[objName+".$process"]
	if !ok {
		return nil
	}
	seen := map[int]bool{fid: true}
	work := []int{fid}
	var seeds []int32
	for len(work) > 0 {
		g := work[len(work)-1]
		work = work[:len(work)-1]
		seeds = append(seeds, r.tyRoot[r.funcObj[g]])
		for _, vv := range r.varV[g] {
			seeds = append(seeds, vv)
		}
		for _, callee := range r.callees[g] {
			if !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
		}
	}
	return seeds
}

// ProcessPinnedReach returns, for a process-bearing object type, every
// node-pinned class the thread can reach, ordered by rendering. Empty when
// the thread reaches nothing pinned (or the object has no process).
func (r *Result) ProcessPinnedReach(objName string) []PinnedReach {
	seeds := r.threadSeeds(objName)
	if seeds == nil {
		return nil
	}
	reached := r.reachClasses(seeds)
	var out []PinnedReach
	for root := range reached {
		if !r.pinnedSet[root] {
			continue
		}
		var p PinnedReach
		for _, oi := range r.typesBy[root] {
			p.Classes = append(p.Classes, r.prog.Objects[oi].Name)
		}
		sort.Strings(p.Classes)
		for id, sites := range r.pinSites {
			if r.find(id) == root {
				p.Fixes = append(p.Fixes, sites...)
			}
		}
		sort.Strings(p.Fixes)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Cohorts returns the group-migration closure of every allocation site
// with at least two members, in site order. Strings are excluded: they
// are copied, not migrated.
func (r *Result) Cohorts() []Cohort {
	var out []Cohort
	for i, s := range r.sites {
		reached := r.reachClasses([]int32{r.siteECR[i]})
		var members []Site
		for root := range reached {
			if root == r.strRoot {
				continue
			}
			for _, si := range r.labelsBy[root] {
				members = append(members, r.sites[si])
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
		if len(members) >= 2 {
			out = append(out, Cohort{Site: s, Members: members})
		}
	}
	return out
}

// CallGraph returns the name-resolved call graph: qualified caller name
// to sorted qualified callee names. Functions with no invoke sites are
// omitted.
func (r *Result) CallGraph() map[string][]string {
	out := map[string][]string{}
	for fid, callees := range r.callees {
		if len(callees) == 0 {
			continue
		}
		var names []string
		for _, gid := range callees {
			g := r.funcs[gid]
			names = append(names, g.Name)
		}
		out[r.funcs[fid].Name] = sortedUnique(names)
	}
	return out
}

// Report renders the whole analysis deterministically: sites, call
// graph, escape summary and cohorts. Two runs over the same program
// produce byte-identical reports (pinned by TestReportDeterministic).
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pta: %d objects, %d functions, %d allocation sites\n",
		len(r.prog.Objects), len(r.funcs), len(r.sites))
	for _, s := range r.sites {
		fmt.Fprintf(&b, "site %d: %s\n", s.ID, s.Label())
	}
	cg := r.CallGraph()
	var callers []string
	for k := range cg {
		callers = append(callers, k)
	}
	sort.Strings(callers)
	for _, k := range callers {
		fmt.Fprintf(&b, "call %s -> %s\n", k, strings.Join(cg[k], ", "))
	}
	for _, obj := range r.prog.Objects {
		for _, f := range obj.Funcs {
			for v := f.NumParams + f.NumResults; v < f.NumVars; v++ {
				if f.VarKinds[v] == ir.VKPtr && r.SlotEscapes(f.Name, v) {
					fmt.Fprintf(&b, "escape %s %s\n", f.Name, f.VarNames[v])
				}
			}
		}
		if obj.HasProcess {
			for _, p := range r.ProcessPinnedReach(obj.Name) {
				fmt.Fprintf(&b, "pinned-reach %s: %s\n", obj.Name, p)
			}
		}
	}
	for _, c := range r.Cohorts() {
		labels := make([]string, len(c.Members))
		for i, m := range c.Members {
			labels[i] = m.Label()
		}
		sort.Strings(labels)
		fmt.Fprintf(&b, "cohort site %d (%s): {%s}\n",
			c.Site.ID, c.Site.Label(), strings.Join(labels, "; "))
	}
	return b.String()
}

// Sites returns the allocation sites in deterministic (discovery) order.
func (r *Result) Sites() []Site { return append([]Site(nil), r.sites...) }

// ------------------------------------------------------------------- helpers

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func sortedUnique(xs []string) []string {
	sort.Strings(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
