// Package codegen translates machine-independent IR into native code for
// each simulated architecture, together with the metadata the runtime needs
// for heterogeneous mobility: activation-record templates, object
// templates, and bus-stop tables (§3.3).
//
// One Compile call produces code for every architecture from the same IR,
// assigning code OIDs deterministically — the "program database" the paper
// proposes to replace its manual OID synchronization (§3.4).
//
// Each back end reads only the shared, machine-independent facts of a
// function, so the (function, target) lowerings are independent: a large
// program lowers them on up to GOMAXPROCS goroutines, a small one on the
// caller alone. The output, and the error of a program that fails, do not
// depend on GOMAXPROCS.
//
// Per-architecture differences produced here, all of which the kernel's
// thread-state conversion must bridge:
//
//   - variable homes: the first len(Spec.HomeRegs) frame variables live in
//     callee-saved registers, the rest in activation-record slots — so a
//     variable that is a register on the SPARC may be memory on the VAX;
//   - activation-record field order differs per ISA;
//   - CISC back ends use memory-to-memory and stack-mode instructions,
//     while the RISC back end loads operands into scratch registers
//     ("RISCification": one abstract operation, several instructions);
//   - monitor exit is an atomic UNLINKQ on the VAX (with an exit-only bus
//     stop) and a kernel call elsewhere;
//   - instruction encodings, and therefore all PC values, differ.
package codegen

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/oid"
	"repro/internal/template"
)

// FuncCode is the native code of one function on one architecture.
type FuncCode struct {
	Name     string
	OpName   string
	Code     []byte
	Template *template.Activation
	Stops    *busstop.Table
	// Strings is the literal/name pool: trap operands and ModeLit operands
	// index it. The kernel interns each entry as a string object at load.
	Strings []string
	// NumInstrs is the instruction count (differs per ISA for the same IR).
	NumInstrs int
	// Decoded is the predecoded instruction cache the fused emulator
	// dispatches over. Built here at compile time — the encoded stream
	// is immutable from this point on — and shared by every node that
	// loads this function. Nil for hand-built FuncCode values; the
	// kernel predecodes those at load (or falls back to byte-at-a-time
	// dispatch if the stream does not decode).
	Decoded *arch.Predecoded
	// Runs is the superinstruction fusion plan over Decoded: the
	// function's basic blocks, also cut after every trapping
	// instruction. Metadata only (PC + length pairs) — Fused compiles it
	// into closures. Nil for hand-built FuncCode values; the kernel plans
	// those at load.
	Runs *arch.FusePlan
	// fused is Runs compiled for the program's spec of the architecture by
	// the first load. The function owns it: every node and cluster over the
	// program shares it, and clusters over one program may run on
	// different goroutines.
	fuseOnce sync.Once
	fused    *arch.Fused
}

// Fused returns the function's fused program, compiling it on first call. s
// must be the spec the function was compiled against (Program.Spec) and
// Decoded non-nil.
func (fc *FuncCode) Fused(s *arch.Spec) *arch.Fused {
	fc.fuseOnce.Do(func() { fc.fused = arch.Fuse(s, fc.Decoded, fc.Runs) })
	return fc.fused
}

// ArchCode is one object's code for one architecture.
type ArchCode struct {
	Arch  arch.ID
	Funcs []*FuncCode
}

// ObjectCode bundles everything the loader needs for one object
// declaration: the machine-independent template and IR plus per-ISA code.
type ObjectCode struct {
	Name       string
	Index      int
	CodeOID    oid.OID
	Template   *template.Object
	IR         *ir.Object
	HasProcess bool
	PerArch    [arch.NumArch]*ArchCode
}

// FuncIndex returns the function index of the named operation, or -1.
func (o *ObjectCode) FuncIndex(name string) int { return o.IR.FuncIndex(name) }

// Program is a fully compiled program: one entry per object declaration,
// each with code for every architecture.
type Program struct {
	Objects []*ObjectCode
	// IR is the machine-independent program this was compiled from
	// (IR.Objects[i] is Objects[i].IR): the input of whole-program
	// analyses such as internal/pta.
	IR *ir.Program
	// Opts records the options the program was compiled with (with
	// Opts.Specs normalized to the actual target list). Static analyses
	// (internal/vet) consult them so that, e.g., an ablation build without
	// loop polls or with custom register files is checked against the
	// metadata it was actually generated for.
	Opts Options
}

// Specs returns the architecture specs the program was compiled for.
func (p *Program) Specs() []*arch.Spec {
	if p.Opts.Specs != nil {
		return p.Opts.Specs
	}
	return arch.AllSpecs()
}

// Spec returns the spec the program was compiled against for id, or nil
// when id is not among its targets. A node of that ISA runs on exactly
// this spec: the code, templates and register homes were generated for it.
func (p *Program) Spec(id arch.ID) *arch.Spec {
	for _, s := range p.Specs() {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// Object returns the compiled object named name, or nil.
func (p *Program) Object(name string) *ObjectCode {
	for _, o := range p.Objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// Options tune code generation for ablation studies.
type Options struct {
	// OmitLoopPolls drops the bottom-of-loop poll instructions (and their
	// bus stops). The resulting code cannot be preempted or migrated at
	// loop bottoms — the ablation quantifies what the paper's "most of the
	// user code polls are free" claim costs in intra-node time.
	OmitLoopPolls bool
	// Specs overrides the target architectures (default arch.AllSpecs()).
	// Custom specs may vary the number of register variable homes.
	Specs []*arch.Spec
}

// Compile translates an IR program for every architecture.
func Compile(p *ir.Program) (*Program, error) {
	return CompileWithOptions(p, Options{})
}

// CompileWithOptions translates an IR program with explicit options.
//
// The per-function facts pass runs on the caller, object by object; it
// stops at the first function that fails verification. Every function of
// the objects before it is then lowered for every target as one job, on
// up to runtime.GOMAXPROCS(0) goroutines when the program is large enough
// to pay for them (parallelMinWork), each job writing only its own
// ArchCode.Funcs slot. Compile waits for every job, and reports the error
// of the first failing job in object, target, function order, else the
// facts error: the error a serial compile would report. The output does
// not depend on how many goroutines ran.
func CompileWithOptions(p *ir.Program, opts Options) (*Program, error) {
	specs := opts.Specs
	if specs == nil {
		specs = arch.AllSpecs()
	}
	opts.Specs = specs
	out := &Program{IR: p, Opts: opts}
	var (
		jobs     []compileJob
		work     int // IR instructions × targets
		factsErr error
	)
objects:
	for idx, obj := range p.Objects {
		// The stack maps and live masks come from the machine-independent
		// IR, so each function is analysed once for every target.
		facts := make([]funcFacts, len(obj.Funcs))
		for i, f := range obj.Funcs {
			if factsErr = facts[i].analyze(obj, f); factsErr != nil {
				break objects
			}
			work += len(f.Code) * len(specs)
		}
		oc := &ObjectCode{
			Name:       obj.Name,
			Index:      idx,
			CodeOID:    oid.ForCode(idx),
			IR:         obj,
			HasProcess: obj.HasProcess,
			// Slots/SlotNames are copied: the template is an independent
			// artifact the runtime (and the vet passes) check against the
			// IR, so the two must not share backing storage.
			Template: &template.Object{
				Name:          obj.Name,
				Immutable:     obj.Immutable,
				Slots:         append([]ir.VK(nil), obj.VarKinds...),
				SlotNames:     append([]string(nil), obj.VarNames...),
				MonitoredFrom: obj.MonitoredFrom,
				NumConds:      obj.NumConds,
			},
		}
		for _, spec := range specs {
			ac := &ArchCode{Arch: spec.ID, Funcs: make([]*FuncCode, len(obj.Funcs))}
			for i, f := range obj.Funcs {
				jobs = append(jobs, compileJob{spec, f, &facts[i], &ac.Funcs[i]})
			}
			oc.PerArch[spec.ID] = ac
		}
		out.Objects = append(out.Objects, oc)
	}
	workers := 1
	if work >= parallelMinWork {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := runJobs(jobs, opts, workers); err != nil {
		return nil, err
	}
	if factsErr != nil {
		return nil, factsErr
	}
	// Bus-stop isomorphism is structural (same lowering order); verify it
	// anyway so a back-end bug cannot silently break mobility.
	for _, oc := range out.Objects {
		var base *ArchCode
		for _, spec := range specs {
			other := oc.PerArch[spec.ID]
			if base == nil {
				base = other
				continue
			}
			for i := range base.Funcs {
				if err := busstop.Isomorphic(base.Funcs[i].Stops, other.Funcs[i].Stops); err != nil {
					return nil, fmt.Errorf("%s: %v vs %v: %w", base.Funcs[i].Name, base.Arch, spec.ID, err)
				}
			}
		}
	}
	return out, nil
}

// parallelMinWork is the crossover, in IR instructions × targets, below
// which a program compiles on the caller alone: waking an idle goroutine
// costs more than lowering the whole of a small program. Measured on a
// two-CPU x86-64 host with the helper woken from idle (a GC and 2 ms of
// sleep before each compile), serial against two goroutines: 282 units
// 193 vs 218 µs, ~700 and ~1 900 tied, 3 018 units 783–792 vs 565–634 µs.
// The corpus programs are 120–396 units and the benchmark's four small
// workloads 288–411.
const parallelMinWork = 2000

// goWorker starts one compile worker. It is a variable so that a test can
// count the goroutines a compile starts.
var goWorker = func(f func()) { go f() }

// compileJob lowers one function for one target into its slot of the
// ArchCode. Jobs share only read-only inputs: the IR, the spec and the
// function's facts.
type compileJob struct {
	spec  *arch.Spec
	f     *ir.Func
	facts *funcFacts
	slot  **FuncCode
}

func (j compileJob) run(opts Options) error {
	fc, err := compileFunc(j.spec, j.f, j.facts, opts)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", j.f.Name, j.spec.Name, err)
	}
	*j.slot = fc
	return nil
}

// runJobs runs jobs on the caller and workers-1 goroutines, which take
// the jobs in order, and returns the error of the first job in that order
// that failed. With one worker the caller runs every job and starts no
// goroutine.
func runJobs(jobs []compileJob, opts Options, workers int) error {
	helpers := max(0, min(workers, len(jobs))-1)
	errs := make([]error, len(jobs))
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
			errs[i] = jobs[i].run(opts)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		goWorker(func() {
			defer wg.Done()
			drain()
		})
	}
	drain()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layout builds the per-ISA activation template for f.
func layout(spec *arch.Spec, f *ir.Func, maxStack int) *template.Activation {
	a := &template.Activation{
		FuncName:   f.Name,
		NumParams:  f.NumParams,
		NumResults: f.NumResults,
		NumVars:    f.NumVars,
		Monitored:  f.Monitored,
		TempSlots:  maxStack,
	}
	nHomes := len(spec.HomeRegs)
	nRegVars := f.NumVars
	if nRegVars > nHomes {
		nRegVars = nHomes
	}
	nMemVars := f.NumVars - nRegVars
	a.SavedRegs = append([]byte(nil), spec.HomeRegs[:nRegVars]...)

	// Word-granular field allocation; the order differs per ISA so that
	// activation records are genuinely laid out differently.
	off := int32(0)
	word := func() int32 {
		o := off
		off += template.WordSize
		return o
	}
	words := func(n int) int32 {
		o := off
		off += int32(n) * template.WordSize
		return o
	}
	memVars := func() int32 { return words(nMemVars) }
	switch spec.ID {
	case arch.VAX:
		a.SavedFPOff = word()
		a.RetDescOff = word()
		a.RetPCOff = word()
		a.SelfOff = word()
		a.TempBaseOff = word()
		a.SavedRegsOff = words(nRegVars)
		mv := memVars()
		a.TempOff = words(maxStack)
		fillVars(a, f, spec, nRegVars, mv)
	case arch.M68K:
		a.RetPCOff = word()
		a.RetDescOff = word()
		a.SavedFPOff = word()
		a.SelfOff = word()
		a.TempBaseOff = word()
		mv := memVars()
		a.SavedRegsOff = words(nRegVars)
		a.TempOff = words(maxStack)
		fillVars(a, f, spec, nRegVars, mv)
	default: // SPARC
		a.SavedRegsOff = words(nRegVars)
		a.SavedFPOff = word()
		a.RetDescOff = word()
		a.RetPCOff = word()
		a.SelfOff = word()
		a.TempBaseOff = word()
		a.TempOff = words(maxStack)
		mv := memVars()
		fillVars(a, f, spec, nRegVars, mv)
	}
	a.Size = off
	return a
}

func fillVars(a *template.Activation, f *ir.Func, spec *arch.Spec, nRegVars int, memBase int32) {
	for v := 0; v < f.NumVars; v++ {
		h := template.Home{Name: f.VarNames[v], Kind: f.VarKinds[v]}
		if v < nRegVars {
			h.InReg = true
			h.Reg = spec.HomeRegs[v]
		} else {
			h.Off = memBase + int32(v-nRegVars)*template.WordSize
		}
		a.Vars = append(a.Vars, h)
	}
}

// trapFor maps value-returning and effect-only IR syscalls to trap kinds.
var sysTraps = map[ir.Op]struct {
	kind   arch.TrapKind
	pushes bool
	rk     ir.VK
}{
	ir.SysPrint:    {arch.TrapPrint, false, ir.VKInt},
	ir.SysNodes:    {arch.TrapNodes, true, ir.VKInt},
	ir.SysThisNode: {arch.TrapThisNode, true, ir.VKInt},
	ir.SysNodeAt:   {arch.TrapNodeAt, true, ir.VKInt},
	ir.SysTimeMS:   {arch.TrapTimeMS, true, ir.VKInt},
	ir.SysYield:    {arch.TrapYield, false, ir.VKInt},
	ir.SysStrOf:    {arch.TrapStrOf, true, ir.VKPtr},
	ir.SysConcat:   {arch.TrapConcat, true, ir.VKPtr},
	ir.SysMove:     {arch.TrapMove, false, ir.VKInt},
	ir.SysFix:      {arch.TrapFix, false, ir.VKInt},
	ir.SysRefix:    {arch.TrapRefix, false, ir.VKInt},
	ir.SysUnfix:    {arch.TrapUnfix, false, ir.VKInt},
	ir.SysLocate:   {arch.TrapLocate, true, ir.VKInt},
	ir.SysWait:     {arch.TrapWait, false, ir.VKInt},
	ir.SysSignal:   {arch.TrapSignal, false, ir.VKInt},
}

// funcFacts is what lowering reads of one IR function that no target
// changes. Lowering only reads it (busstop.NewTable copies the stack kinds a
// stop records), so one value serves every target.
type funcFacts struct {
	fi *ir.FuncInfo
	// liveMask[pc] is the frame-variable live mask recorded on any bus stop
	// emitted while lowering IR instruction pc: the machine-independent
	// liveOut of the instruction (the stop PC is the resumption point past
	// it) with result slots always included — the kernel reads them at Ret
	// on the caller's behalf.
	liveMask []uint64
}

// analyze reads f's shared stack maps and liveness (ir.Func.Facts, which
// verifies f on first use) and computes its per-instruction live masks.
func (ff *funcFacts) analyze(obj *ir.Object, f *ir.Func) (err error) {
	var li *ir.LiveInfo
	if ff.fi, li, err = f.Facts(obj.VarKinds); err != nil {
		return err
	}
	var resMask uint64
	for v := f.NumParams; v < f.NumParams+f.NumResults && v < 64; v++ {
		resMask |= 1 << uint(v)
	}
	ff.liveMask = make([]uint64, len(f.Code))
	for pc := range f.Code {
		ff.liveMask[pc] = li.LiveMask(pc, f.NumVars) | resMask
	}
	return nil
}

type lowerer struct {
	*funcFacts
	spec  *arch.Spec
	opts  Options
	f     *ir.Func
	tmpl  *template.Activation
	code  []byte
	stops []busstop.Info
	// curLive is liveMask of the instruction being lowered.
	curLive uint64
	// irOff[i] is the machine offset of IR instruction i; fixups record
	// (branch machine offset, IR target) pairs patched after lowering.
	irOff  []uint32
	fixups []fixup
	n      int // instruction count
}

type fixup struct {
	at       uint32
	irTarget int32
}

func compileFunc(spec *arch.Spec, f *ir.Func, facts *funcFacts, opts Options) (*FuncCode, error) {
	lo := &lowerer{
		funcFacts: facts, spec: spec, f: f, opts: opts,
		tmpl:  layout(spec, f, facts.fi.MaxStack),
		irOff: make([]uint32, len(f.Code)+1),
	}
	if err := lo.tmpl.Validate(); err != nil {
		return nil, err
	}
	for pc, in := range f.Code {
		lo.irOff[pc] = uint32(len(lo.code))
		lo.curLive = lo.liveMask[pc]
		if !lo.fi.Reach[pc] {
			// Keep a decodable placeholder so offsets remain well formed;
			// it can never execute.
			lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: arch.TrapFault,
				TrapA: uint16(arch.FaultStack)})
			continue
		}
		if err := lo.lower(pc, in); err != nil {
			return nil, err
		}
	}
	lo.irOff[len(f.Code)] = uint32(len(lo.code))
	for _, fx := range lo.fixups {
		target := lo.irOff[fx.irTarget]
		if target > 0xffff {
			return nil, fmt.Errorf("%s: branch target %#x exceeds 64KB", f.Name, target)
		}
		if err := arch.PatchTarget(spec, lo.code, fx.at, uint16(target)); err != nil {
			return nil, err
		}
	}
	tbl, err := busstop.NewTable(lo.stops)
	if err != nil {
		return nil, err
	}
	dec, err := arch.Predecode(spec, lo.code, lo.n)
	if err != nil {
		// The lowerer emits decodable placeholders even for unreachable
		// slots, so a predecode failure here is a back-end bug.
		return nil, fmt.Errorf("%s: predecode %s: %w", spec.Name, f.Name, err)
	}
	return &FuncCode{
		Name:      f.Name,
		OpName:    f.OpName,
		Code:      lo.code,
		Template:  lo.tmpl,
		Stops:     tbl,
		Strings:   f.Strings,
		NumInstrs: lo.n,
		Decoded:   dec,
		Runs:      arch.PlanFusion(dec),
	}, nil
}

func (lo *lowerer) emit(in arch.Instr) uint32 {
	at := uint32(len(lo.code))
	code, err := arch.Encode(lo.spec, lo.code, in)
	if err != nil {
		// Lowering always produces encodable instructions; any failure is a
		// back-end bug.
		panic(fmt.Sprintf("codegen: %s: %v: %v", lo.f.Name, in, err))
	}
	lo.code = code
	lo.n++
	return at
}

// stop registers a bus stop at the current PC (the address after the last
// emitted instruction, i.e. the resumption point). kinds may alias the
// shared stack map: busstop.NewTable copies it into the table.
func (lo *lowerer) stop(kind busstop.Kind, exitOnly, pushes bool, rk ir.VK, depth int, kinds []ir.VK) {
	lo.stops = append(lo.stops, busstop.Info{
		Stop: len(lo.stops), PC: uint32(len(lo.code)), Kind: kind,
		ExitOnly: exitOnly, Pushes: pushes, ResultKind: rk,
		TempDepth: depth, TempKinds: kinds,
		LiveVars: lo.curLive,
	})
}

// scratch registers for RISC lowering.
func (lo *lowerer) sc(i int) byte { return lo.spec.ScratchRegs[i] }

func (lo *lowerer) risc() bool { return lo.spec.Style == arch.EncFixedRISC }

// mov emits a move, splitting it on RISC when both operands touch memory.
func (lo *lowerer) mov(src, dst arch.Operand) {
	if lo.risc() {
		srcMem := src.Mode != arch.ModeReg
		dstMem := dst.Mode != arch.ModeReg
		if srcMem && dstMem {
			r := arch.Reg(lo.sc(0))
			lo.emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{src, r}})
			lo.emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{r, dst}})
			return
		}
	}
	lo.emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{src, dst}})
}

// varOperand returns the operand addressing frame variable v.
func (lo *lowerer) varOperand(v int32) arch.Operand {
	h := lo.tmpl.Vars[v]
	if h.InReg {
		return arch.Reg(h.Reg)
	}
	return arch.Frame(uint16(h.Off))
}

// alu3 emits a three-operand stack ALU op: pops two, pushes one.
func (lo *lowerer) alu3(op arch.Op, cc byte) {
	if lo.risc() {
		// src2 (top of stack) first, then src1.
		lo.mov(arch.Pop(), arch.Reg(lo.sc(1)))
		lo.mov(arch.Pop(), arch.Reg(lo.sc(0)))
		lo.emit(arch.Instr{Op: op, CC: cc, N: 3, Operands: [3]arch.Operand{
			arch.Reg(lo.sc(0)), arch.Reg(lo.sc(1)), arch.Reg(lo.sc(2))}})
		lo.mov(arch.Reg(lo.sc(2)), arch.Push())
		return
	}
	lo.emit(arch.Instr{Op: op, CC: cc, N: 3, Operands: [3]arch.Operand{
		arch.Pop(), arch.Pop(), arch.Push()}})
}

// alu2 emits a two-operand stack ALU op: pops one, pushes one.
func (lo *lowerer) alu2(op arch.Op) {
	if lo.risc() {
		lo.mov(arch.Pop(), arch.Reg(lo.sc(0)))
		lo.emit(arch.Instr{Op: op, N: 2, Operands: [3]arch.Operand{
			arch.Reg(lo.sc(0)), arch.Reg(lo.sc(1))}})
		lo.mov(arch.Reg(lo.sc(1)), arch.Push())
		return
	}
	lo.emit(arch.Instr{Op: op, N: 2, Operands: [3]arch.Operand{
		arch.Pop(), arch.Push()}})
}

// trap emits a kernel trap and registers its bus stop.
func (lo *lowerer) trap(pc int, kind arch.TrapKind, a, b uint16,
	bsKind busstop.Kind, pushes bool, rk ir.VK) {
	lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: kind, TrapA: a, TrapB: b})
	pop, _ := ir.StackEffect(lo.f.Code[pc])
	st := lo.fi.Stack(pc)
	depth := len(st) - pop
	lo.stop(bsKind, false, pushes, rk, depth, st[:depth])
}

func (lo *lowerer) lower(pc int, in ir.Instr) error {
	switch in.Op {
	case ir.Nop:
		// No code; the builder never produces Nop.
	case ir.PushInt:
		lo.mov(arch.Imm(uint32(in.A)), arch.Push())
	case ir.PushReal:
		lo.mov(arch.Imm(lo.spec.Float.Enc(float32(in.F))), arch.Push())
	case ir.PushStr:
		lo.mov(arch.Lit(uint16(in.S)), arch.Push())
	case ir.PushNil:
		lo.mov(arch.Imm(0), arch.Push())
	case ir.PushSelf:
		lo.mov(arch.Frame(uint16(lo.tmpl.SelfOff)), arch.Push())
	case ir.LoadVar:
		lo.mov(lo.varOperand(in.A), arch.Push())
	case ir.StoreVar:
		lo.mov(arch.Pop(), lo.varOperand(in.A))
	case ir.LoadMine:
		lo.mov(arch.SelfOp(uint16(4*in.A)), arch.Push())
	case ir.StoreMine:
		lo.mov(arch.Pop(), arch.SelfOp(uint16(4*in.A)))
	case ir.AddI:
		lo.alu3(arch.OpAdd, 0)
	case ir.SubI:
		lo.alu3(arch.OpSub, 0)
	case ir.MulI:
		lo.alu3(arch.OpMul, 0)
	case ir.DivI:
		lo.alu3(arch.OpDiv, 0)
	case ir.ModI:
		lo.alu3(arch.OpMod, 0)
	case ir.NegI:
		lo.alu2(arch.OpNeg)
	case ir.AbsI:
		lo.alu2(arch.OpAbs)
	case ir.AddR:
		lo.alu3(arch.OpFAdd, 0)
	case ir.SubR:
		lo.alu3(arch.OpFSub, 0)
	case ir.MulR:
		lo.alu3(arch.OpFMul, 0)
	case ir.DivR:
		lo.alu3(arch.OpFDiv, 0)
	case ir.NegR:
		lo.alu2(arch.OpFNeg)
	case ir.CvtIR:
		lo.alu2(arch.OpCvt)
	case ir.NotB:
		lo.alu2(arch.OpNot)
	case ir.AndB:
		lo.alu3(arch.OpAnd, 0)
	case ir.OrB:
		lo.alu3(arch.OpOr, 0)
	case ir.CmpI, ir.CmpP:
		lo.alu3(arch.OpScc, byte(in.A))
	case ir.CmpR:
		lo.alu3(arch.OpFScc, byte(in.A))
	case ir.CmpS:
		lo.alu3(arch.OpSScc, byte(in.A))
	case ir.SLen:
		lo.alu2(arch.OpSLen)
	case ir.SIndex:
		lo.alu3(arch.OpSIdx, 0)
	case ir.ALoad, ir.AStore, ir.ALen:
		// Arrays are mutable, mobile objects: element access goes through
		// the kernel, which takes a fast path when the array is resident
		// and a remote access protocol otherwise. (Strings are immutable
		// and copied across the wire, so string access stays inline.)
		var tk arch.TrapKind
		pushes := true
		rk := in.K
		switch in.Op {
		case ir.ALoad:
			tk = arch.TrapALoad
		case ir.AStore:
			tk, pushes = arch.TrapAStore, false
		case ir.ALen:
			tk, rk = arch.TrapALen, ir.VKInt
		}
		lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: tk, TrapB: uint16(in.K)})
		pop, _ := ir.StackEffect(in)
		st := lo.fi.Stack(pc)
		depth := len(st) - pop
		lo.stop(busstop.KindSyscall, false, pushes, rk, depth, st[:depth])
	case ir.Drop:
		lo.mov(arch.Pop(), arch.Reg(lo.sc(0)))
	case ir.Jump:
		at := lo.emit(arch.Instr{Op: arch.OpJmp})
		lo.fixups = append(lo.fixups, fixup{at, in.A})
	case ir.BrFalse, ir.BrTrue:
		op := arch.OpBrz
		if in.Op == ir.BrTrue {
			op = arch.OpBrnz
		}
		var src arch.Operand
		if lo.risc() {
			lo.mov(arch.Pop(), arch.Reg(lo.sc(0)))
			src = arch.Reg(lo.sc(0))
		} else {
			src = arch.Pop()
		}
		at := lo.emit(arch.Instr{Op: op, N: 1, Operands: [3]arch.Operand{src}})
		lo.fixups = append(lo.fixups, fixup{at, in.A})
	case ir.LoopBottom:
		if lo.opts.OmitLoopPolls {
			break // ablation: no poll, no bus stop at loop bottoms
		}
		lo.emit(arch.Instr{Op: arch.OpPoll})
		st := lo.fi.Stack(pc)
		lo.stop(busstop.KindLoopBottom, false, false, ir.VKInt, len(st), st)
	case ir.Ret:
		if lo.f.Monitored {
			if lo.spec.HasAtomicUnlink {
				lo.emit(arch.Instr{Op: arch.OpUnlq})
				st := lo.fi.Stack(pc)
				lo.stop(busstop.KindMonExit, true, false, ir.VKInt, len(st), st)
			} else {
				lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: arch.TrapMonExit})
				st := lo.fi.Stack(pc)
				lo.stop(busstop.KindMonExit, false, false, ir.VKInt, len(st), st)
			}
		}
		lo.emit(arch.Instr{Op: arch.OpRet})
	case ir.Call:
		lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: arch.TrapCall,
			TrapA: uint16(in.S), TrapB: uint16(in.A)})
		st := lo.fi.Stack(pc)
		depth := len(st) - int(in.A) - 1
		lo.stop(busstop.KindCall, false, true, in.K, depth, st[:depth])
	case ir.New:
		lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: arch.TrapNew,
			TrapA: uint16(in.S), TrapB: uint16(in.A)})
		st := lo.fi.Stack(pc)
		depth := len(st) - int(in.A)
		lo.stop(busstop.KindSyscall, false, true, ir.VKPtr, depth, st[:depth])
	case ir.NewArray:
		lo.emit(arch.Instr{Op: arch.OpTrap, TrapKind: arch.TrapNewArray,
			TrapB: uint16(in.K)})
		st := lo.fi.Stack(pc)
		depth := len(st) - 1
		lo.stop(busstop.KindSyscall, false, true, ir.VKPtr, depth, st[:depth])
	default:
		ts, ok := sysTraps[in.Op]
		if !ok {
			return fmt.Errorf("codegen: cannot lower %v", in.Op)
		}
		a, b := uint16(in.S), uint16(in.A)
		lo.trap(pc, ts.kind, a, b, busstop.KindSyscall, ts.pushes, ts.rk)
	}
	return nil
}
