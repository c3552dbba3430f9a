// Metadata passes: the checks that guard the heterogeneous-migration
// contract between the compiler back ends and the runtime kernel.

package vet

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/codegen"
	"repro/internal/ir"
)

// ---------------------------------------------------------- stop-isomorphism

// stopIsomorphism checks that every function's bus-stop tables enumerate the
// same machine-independent program points on every architecture. The stop
// numbers — not PCs — cross the network during migration, so any skew here
// silently resumes a thread at the wrong program point.
func (c *checker) stopIsomorphism(oc *codegen.ObjectCode) {
	var base *codegen.ArchCode
	for id := arch.ID(0); id < arch.NumArch; id++ {
		ac := oc.PerArch[id]
		if ac == nil {
			continue
		}
		if base == nil {
			base = ac
			continue
		}
		for i := range base.Funcs {
			if err := busstop.Isomorphic(base.Funcs[i].Stops, ac.Funcs[i].Stops); err != nil {
				c.report("stop-isomorphism", SevError, oc.Name, base.Funcs[i].Name,
					ac.Arch.String(), -1, "table differs from %v: %v", base.Arch, err)
			}
		}
	}
}

// exitOnlyPlacement checks that exit-only stops appear exactly where the ISA
// spec permits them: an exit-only stop is the atomic monitor-exit
// instruction (the VAX UNLINKQ, §3.3), so it is legal only for monitor-exit
// stops on an architecture with HasAtomicUnlink — and mandatory there, since
// the local runtime must never try to convert that PC to a stop number.
func (c *checker) exitOnlyPlacement(oc *codegen.ObjectCode, ac *codegen.ArchCode, spec *arch.Spec) {
	for _, fc := range ac.Funcs {
		for n := range fc.Stops.Len() {
			s, _ := fc.Stops.ByStop(n) // n is in range
			switch {
			case s.ExitOnly && !spec.HasAtomicUnlink:
				c.report("stop-isomorphism", SevError, oc.Name, fc.Name, spec.Name, s.Stop,
					"exit-only stop on an ISA without an atomic unlink")
			case s.ExitOnly && s.Kind != busstop.KindMonExit:
				c.report("stop-isomorphism", SevError, oc.Name, fc.Name, spec.Name, s.Stop,
					"exit-only %s stop: only monitor exits may be exit-only", s.Kind)
			case !s.ExitOnly && s.Kind == busstop.KindMonExit && spec.HasAtomicUnlink:
				c.report("stop-isomorphism", SevError, oc.Name, fc.Name, spec.Name, s.Stop,
					"monitor-exit stop not exit-only on an ISA with an atomic unlink")
			}
		}
	}
}

// ---------------------------------------------------------- pc-alignment

// pcAlignment checks that every stop PC is an instruction boundary inside
// the function, in increasing order, and that the instruction ending at the
// stop PC belongs to the trap class the stop kind claims. A misaligned PC
// makes number→PC conversion park an arriving thread in the middle of an
// instruction. It reads the decode the code generator made at compile time
// (FuncCode.Decoded); a FuncCode without one that covers its code is
// decoded here. A stream that does not decode end to end is reported once,
// instead of any stop finding.
func (c *checker) pcAlignment(oc *codegen.ObjectCode, ac *codegen.ArchCode, spec *arch.Spec) {
	const pass = "pc-alignment"
	for _, fc := range ac.Funcs {
		dec := fc.Decoded
		if dec == nil || dec.CodeLen() != len(fc.Code) {
			var err error
			if dec, err = arch.Predecode(spec, fc.Code, fc.NumInstrs); err != nil {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, -1,
					"undecodable instruction: %v", err)
				continue
			}
		}
		prevPC := int64(-1)
		for n := range fc.Stops.Len() {
			s, _ := fc.Stops.ByStop(n) // n is in range
			if int(s.PC) > len(fc.Code) {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, s.Stop,
					"pc %#x outside code of %d bytes", s.PC, len(fc.Code))
				continue
			}
			if int64(s.PC) <= prevPC {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, s.Stop,
					"pc %#x not after the previous stop's pc %#x", s.PC, prevPC)
			}
			prevPC = int64(s.PC)
			last, ok := dec.EndingAt(s.PC)
			if !ok {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, s.Stop,
					"pc %#x is not an instruction boundary", s.PC)
				continue
			}
			if msg := stopInstrMismatch(s, last); msg != "" {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, s.Stop, "%s", msg)
			}
		}
	}
}

// stopInstrMismatch checks that the instruction preceding a stop PC matches
// the stop's kind, returning a message when it does not.
func stopInstrMismatch(s busstop.Info, in arch.Instr) string {
	switch s.Kind {
	case busstop.KindLoopBottom:
		if in.Op != arch.OpPoll {
			return fmt.Sprintf("loop stop follows %v, want poll", in.Op)
		}
	case busstop.KindCall:
		if in.Op != arch.OpTrap || in.TrapKind != arch.TrapCall {
			return fmt.Sprintf("call stop follows %v, want a call trap", in)
		}
	case busstop.KindMonExit:
		if s.ExitOnly {
			if in.Op != arch.OpUnlq {
				return fmt.Sprintf("exit-only monexit stop follows %v, want unlq", in)
			}
		} else if in.Op != arch.OpTrap || in.TrapKind != arch.TrapMonExit {
			return fmt.Sprintf("monexit stop follows %v, want a monexit trap", in)
		}
	case busstop.KindSyscall:
		if in.Op != arch.OpTrap {
			return fmt.Sprintf("syscall stop follows %v, want a trap", in.Op)
		}
		switch in.TrapKind {
		case arch.TrapCall, arch.TrapMonExit, arch.TrapMonExitA, arch.TrapRet,
			arch.TrapFault, arch.TrapNone:
			return fmt.Sprintf("syscall stop follows a %v trap", in.TrapKind)
		}
	}
	return ""
}

// ------------------------------------------------------ liveness-consistency

// sysSigs mirrors the kernel's syscall signatures independently of the
// codegen lowering tables: whether each syscall pushes a result, and of what
// kind. The duplication is deliberate — vet recomputes the contract rather
// than trusting the code under test. It is indexed by op; sys is false for
// every op that is not a syscall.
var sysSigs = [ir.NumOps]struct {
	sys    bool
	pushes bool
	rk     ir.VK
}{
	ir.SysPrint:    {true, false, ir.VKInt},
	ir.SysNodes:    {true, true, ir.VKInt},
	ir.SysThisNode: {true, true, ir.VKInt},
	ir.SysNodeAt:   {true, true, ir.VKInt},
	ir.SysTimeMS:   {true, true, ir.VKInt},
	ir.SysYield:    {true, false, ir.VKInt},
	ir.SysStrOf:    {true, true, ir.VKPtr},
	ir.SysConcat:   {true, true, ir.VKPtr},
	ir.SysMove:     {true, false, ir.VKInt},
	ir.SysFix:      {true, false, ir.VKInt},
	ir.SysRefix:    {true, false, ir.VKInt},
	ir.SysUnfix:    {true, false, ir.VKInt},
	ir.SysLocate:   {true, true, ir.VKInt},
	ir.SysWait:     {true, false, ir.VKInt},
	ir.SysSignal:   {true, false, ir.VKInt},
}

// expStop is one element of the machine-independent expected stop stream of
// a function: everything a bus stop must record except the PC (machine
// dependent) and the ExitOnly flag (derived per spec from monExit).
type expStop struct {
	irPC    int
	kind    busstop.Kind
	monExit bool
	pushes  bool
	rk      ir.VK
	kinds   []ir.VK // temporaries below the stop, bottom first (a view of the shared stack map)
	live    uint64  // frame-variable live mask (liveOut of irPC | result slots)
}

// expectedStops recomputes, from the IR alone, the stop stream every
// architecture's table must realize: which reachable instructions trap to
// the kernel, in lowering order, with which temporaries live. This is the
// per-bus-stop information the enhanced compiler must emit (§3.3), derived
// here a second time so a back-end bug cannot certify itself.
func expectedStops(f *ir.Func, fi *ir.FuncInfo, li *ir.LiveInfo, omitLoopPolls bool) []expStop {
	var out []expStop
	var resMask uint64
	for v := f.NumParams; v < f.NumParams+f.NumResults && v < 64; v++ {
		resMask |= 1 << uint(v)
	}
	for pc, in := range f.Code {
		if !fi.Reach[pc] {
			continue
		}
		st := fi.Stack(pc)
		add := func(kind busstop.Kind, monExit, pushes bool, rk ir.VK, depth int) {
			out = append(out, expStop{
				irPC: pc, kind: kind, monExit: monExit, pushes: pushes, rk: rk,
				kinds: st[:depth:depth],
				live:  li.LiveMask(pc, f.NumVars) | resMask,
			})
		}
		switch in.Op {
		case ir.Call:
			add(busstop.KindCall, false, true, in.K, len(st)-int(in.A)-1)
		case ir.New:
			add(busstop.KindSyscall, false, true, ir.VKPtr, len(st)-int(in.A))
		case ir.NewArray:
			add(busstop.KindSyscall, false, true, ir.VKPtr, len(st)-1)
		case ir.ALoad:
			add(busstop.KindSyscall, false, true, in.K, len(st)-2)
		case ir.AStore:
			add(busstop.KindSyscall, false, false, in.K, len(st)-3)
		case ir.ALen:
			add(busstop.KindSyscall, false, true, ir.VKInt, len(st)-1)
		case ir.LoopBottom:
			if !omitLoopPolls {
				add(busstop.KindLoopBottom, false, false, ir.VKInt, len(st))
			}
		case ir.Ret:
			if f.Monitored {
				add(busstop.KindMonExit, true, false, ir.VKInt, len(st))
			}
		default:
			if sig := sysSigs[in.Op]; sig.sys {
				pop, _ := ir.StackEffect(in)
				add(busstop.KindSyscall, false, sig.pushes, sig.rk, len(st)-pop)
			}
		}
	}
	return out
}

// livenessConsistency re-derives each function's stop stream from the IR and
// checks the architecture's table against it stop by stop: kind, push
// behaviour, result kind, and the exact temporary-stack description. The
// kernel trusts these fields to convert live temporaries between formats; a
// mismatch corrupts every value above the skew.
func (c *checker) livenessConsistency(oc *codegen.ObjectCode, ac *codegen.ArchCode, spec *arch.Spec) {
	const pass = "liveness-consistency"
	facts := c.facts(oc)
	for i, fc := range ac.Funcs {
		f := oc.IR.Funcs[i]
		if err := facts[i].err; err != nil {
			c.report(pass, SevError, oc.Name, fc.Name, spec.Name, -1,
				"IR does not verify: %v", err)
			continue
		}
		exp := facts[i].exp
		tbl := fc.Stops
		if tbl.Len() != len(exp) {
			c.report(pass, SevError, oc.Name, fc.Name, spec.Name, -1,
				"%d stops in table, %d kernel-transfer points in IR", tbl.Len(), len(exp))
			continue
		}
		for n, e := range exp {
			s, err := tbl.ByStop(n)
			if err != nil {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, n, "%v", err)
				continue
			}
			bad := func(format string, args ...any) {
				c.report(pass, SevError, oc.Name, fc.Name, spec.Name, n,
					"at ir@%d (%s): %s", e.irPC, f.Code[e.irPC], fmt.Sprintf(format, args...))
			}
			if s.Kind != e.kind {
				bad("kind %s, want %s", s.Kind, e.kind)
			}
			if s.Pushes != e.pushes {
				bad("pushes=%v, want %v", s.Pushes, e.pushes)
			}
			if s.Pushes && s.ResultKind != e.rk {
				bad("result kind %s, want %s", s.ResultKind, e.rk)
			}
			wantExit := e.monExit && spec.HasAtomicUnlink
			if s.ExitOnly != wantExit {
				bad("exit-only=%v, want %v", s.ExitOnly, wantExit)
			}
			if s.LiveVars != e.live {
				bad("live mask %#x, want %#x (a cleared live bit would let the "+
					"kernel canonicalize a slot some path still reads)", s.LiveVars, e.live)
			}
			if s.TempDepth != len(e.kinds) {
				bad("temp depth %d, want %d", s.TempDepth, len(e.kinds))
				continue
			}
			if len(s.TempKinds) != len(e.kinds) {
				bad("%d temp kinds for depth %d", len(s.TempKinds), len(e.kinds))
				continue
			}
			for j := range e.kinds {
				if s.TempKinds[j] != e.kinds[j] {
					bad("temp %d is %s, want %s", j, s.TempKinds[j], e.kinds[j])
				}
			}
		}
	}
}

// ------------------------------------------------------- template-coverage

// objectTemplate checks the machine-independent object template against the
// IR data-area layout. Templates drive marshalling, swizzling and GC: a slot
// whose kind disagrees with the IR either leaks a raw pointer across the
// network or converts an integer as a reference.
func (c *checker) objectTemplate(oc *codegen.ObjectCode) {
	const pass = "template-coverage"
	t := oc.Template
	o := oc.IR
	if t == nil {
		c.report(pass, SevError, oc.Name, "", "", -1, "object has no template")
		return
	}
	if t.Name != o.Name {
		c.report(pass, SevError, oc.Name, "", "", -1,
			"template names %q, object is %q", t.Name, o.Name)
	}
	if t.Immutable != o.Immutable {
		c.report(pass, SevError, oc.Name, "", "", -1,
			"template immutable=%v, object immutable=%v", t.Immutable, o.Immutable)
	}
	if len(t.Slots) != len(o.VarKinds) {
		c.report(pass, SevError, oc.Name, "", "", -1,
			"template has %d slots, data area has %d", len(t.Slots), len(o.VarKinds))
		return
	}
	for i, k := range t.Slots {
		if k != o.VarKinds[i] {
			c.report(pass, SevError, oc.Name, "", "", -1,
				"slot %d (%s) is %s in the template, %s in the IR",
				i, o.VarNames[i], k, o.VarKinds[i])
		}
		if i < len(t.SlotNames) && i < len(o.VarNames) && t.SlotNames[i] != o.VarNames[i] {
			c.report(pass, SevError, oc.Name, "", "", -1,
				"slot %d named %q in the template, %q in the IR", i, t.SlotNames[i], o.VarNames[i])
		}
	}
	if t.MonitoredFrom != o.MonitoredFrom {
		c.report(pass, SevError, oc.Name, "", "", -1,
			"template monitors slots from %d, IR from %d", t.MonitoredFrom, o.MonitoredFrom)
	}
	if t.NumConds != o.NumConds {
		c.report(pass, SevError, oc.Name, "", "", -1,
			"template has %d conditions, IR has %d", t.NumConds, o.NumConds)
	}
}

// templateCoverage checks each activation template against the IR function
// and the ISA spec: well-formed non-overlapping coverage of the record,
// every variable slot described exactly once with the IR's name and kind,
// register homes drawn from the ISA's callee-saved home registers, and a
// saved-register area that matches the homes in slot order — the contract
// the kernel's thread-state conversion and GC stack walk rely on.
func (c *checker) templateCoverage(oc *codegen.ObjectCode, ac *codegen.ArchCode, spec *arch.Spec) {
	const pass = "template-coverage"
	facts := c.facts(oc)
	for i, fc := range ac.Funcs {
		f := oc.IR.Funcs[i]
		t := fc.Template
		if t == nil {
			c.report(pass, SevError, oc.Name, fc.Name, spec.Name, -1, "function has no template")
			continue
		}
		bad := func(format string, args ...any) {
			c.report(pass, SevError, oc.Name, fc.Name, spec.Name, -1, format, args...)
		}
		// Structural validity: every word claimed at most once, inside the
		// record.
		if err := t.Validate(); err != nil {
			bad("malformed template: %v", err)
			continue
		}
		if t.NumParams != f.NumParams || t.NumResults != f.NumResults || t.NumVars != f.NumVars {
			bad("template describes %d/%d/%d params/results/vars, IR has %d/%d/%d",
				t.NumParams, t.NumResults, t.NumVars, f.NumParams, f.NumResults, f.NumVars)
		}
		if t.Monitored != f.Monitored {
			bad("template monitored=%v, IR monitored=%v", t.Monitored, f.Monitored)
		}
		if fi := facts[i].fi; fi != nil && t.TempSlots < fi.MaxStack {
			bad("temp area has %d slots, evaluation stack reaches %d", t.TempSlots, fi.MaxStack)
		}
		if len(t.Vars) != len(f.VarKinds) {
			bad("%d variable homes for %d slots", len(t.Vars), len(f.VarKinds))
			continue
		}
		home := func(r byte) bool {
			for _, h := range spec.HomeRegs {
				if h == r {
					return true
				}
			}
			return false
		}
		var regOrder []byte
		for v, h := range t.Vars {
			if h.Name != f.VarNames[v] {
				bad("slot %d named %q in the template, %q in the IR", v, h.Name, f.VarNames[v])
			}
			if h.Kind != f.VarKinds[v] {
				bad("slot %d (%s) is %s in the template, %s in the IR",
					v, f.VarNames[v], h.Kind, f.VarKinds[v])
			}
			if h.InReg {
				if !home(h.Reg) {
					bad("slot %d (%s) homed in r%d, which is not a callee-saved home register of %s",
						v, f.VarNames[v], h.Reg, spec.Name)
				}
				regOrder = append(regOrder, h.Reg)
			}
		}
		// The saved-register area must list exactly the registers used as
		// homes, in slot order: the kernel writes the caller's values there
		// at call time and restores them from there on migration.
		if len(regOrder) != len(t.SavedRegs) {
			bad("saved-register area holds %d registers, %d slots are register-homed",
				len(t.SavedRegs), len(regOrder))
		} else {
			for j := range regOrder {
				if t.SavedRegs[j] != regOrder[j] {
					bad("saved register %d is r%d, home order says r%d",
						j, t.SavedRegs[j], regOrder[j])
				}
			}
		}
	}
}
