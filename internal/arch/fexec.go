// Fused execution state and dispatch loop. One fexec carries a whole
// Run call: the kernel-owned bases (FP, Self, TempBase, LitBase — machine
// instructions never write them) are hoisted once, and the register file
// and temp-stack depth are loaded on entry and written back on every
// return — nothing outside the executor looks at the CPU between the
// runs of one call. The slice budget is no exit: it only makes the run's
// closing poll yield. Memory writes stay eager: only registers and depth
// are held, so the final memory image is byte-identical to the legacy
// path by construction. Step (exec.go) runs its one closure on an fexec
// of its own. The spec's byte order is resolved once per Run or Step
// call too, so every load and store inlines a concrete binary.BigEndian
// or LittleEndian.

package arch

import (
	"encoding/binary"
	"fmt"
)

// fop executes one fused instruction against the shared executor state.
type fop func(*fexec)

// fexec is the mutable state threaded through a run's closures.
type fexec struct {
	cpu *CPU
	mem []byte

	// Hoisted per Run call (kernel-owned, instruction-immutable).
	fp       uint32
	self     uint32
	tempBase uint32
	litBase  uint32
	mc       uint64 // s.MemCycles
	be       bool   // s.ByteOrd is big endian (bigEndian)
	preempt  bool   // a poll yields: cpu.Preempt, or the budget is spent

	// Held for the whole Run call.
	r      [16]uint32 // cpu.Regs
	depth  int32      // cpu.TempDepth
	cycles uint64

	// Per-run state.
	npc   uint32    // next PC; branches redirect it, fallthrough pre-set
	fault FaultCode // first fault of the current instruction (0 = none); it ends the run
	unran int32     // instructions of a faulting block after the faulting one
	trap  *Trap     // kernel-entry trap raised by the run's last instruction
	tbuf  Trap      // where trap points: the executor owns its trap
}

// bigEndian resolves a spec's byte order to the flag ld32 and st32 branch
// on, once per Run or Step call.
func bigEndian(s *Spec) bool { return s.ByteOrd == binary.BigEndian }

// inMem reports whether the word at addr lies in memory; address 0 is
// nil and never does.
func (e *fexec) inMem(addr uint32) bool { return addr != 0 && int(addr)+4 <= len(e.mem) }

// word and putWord access the word at an address inMem has accepted, in
// the byte order resolved for the call.
func (e *fexec) word(addr uint32) uint32 {
	if e.be {
		return binary.BigEndian.Uint32(e.mem[addr:])
	}
	return binary.LittleEndian.Uint32(e.mem[addr:])
}

func (e *fexec) putWord(addr, v uint32) {
	if e.be {
		binary.BigEndian.PutUint32(e.mem[addr:], v)
	} else {
		binary.LittleEndian.PutUint32(e.mem[addr:], v)
	}
}

func (e *fexec) ld32(addr uint32) (uint32, bool) {
	if !e.inMem(addr) {
		return 0, false
	}
	return e.word(addr), true
}

func (e *fexec) st32(addr, v uint32) bool {
	if !e.inMem(addr) {
		return false
	}
	e.putWord(addr, v)
	return true
}

// The temp-stack and frame operand modes, each written once: the general
// accessors (fuser.rd and fuser.wr) wrap them and the flat forms
// (fuser.fuseFlat) call them directly, and each is small enough to
// inline there. Each charges MemCycles before its access; a failed
// access records FaultStack and, for a read, yields 0.

// pop reads a Pop operand: the depth drops before the load, and a pop at
// depth 0 faults without touching memory.
func (e *fexec) pop() uint32 {
	e.cycles += e.mc
	if e.depth > 0 {
		e.depth--
		if a := e.tempBase + 4*uint32(e.depth); e.inMem(a) {
			return e.word(a)
		}
	}
	return e.setFault(FaultStack)
}

// push writes a Push operand: the depth rises only after a successful
// store.
func (e *fexec) push(v uint32) {
	e.cycles += e.mc
	if a := e.tempBase + 4*uint32(e.depth); e.inMem(a) {
		e.putWord(a, v)
		e.depth++
		return
	}
	e.setFault(FaultStack)
}

// ldFrame reads the Frame operand at FP+d.
func (e *fexec) ldFrame(d uint32) uint32 {
	e.cycles += e.mc
	if a := e.fp + d; e.inMem(a) {
		return e.word(a)
	}
	return e.setFault(FaultStack)
}

// stFrame writes the Frame operand at FP+d.
func (e *fexec) stFrame(d, v uint32) {
	e.cycles += e.mc
	if a := e.fp + d; e.inMem(a) {
		e.putWord(a, v)
		return
	}
	e.setFault(FaultStack)
}

func (e *fexec) readString(ref uint32) ([]byte, bool) {
	if ref == 0 {
		return nil, false
	}
	n, ok := e.ld32(ref + LenOff)
	if !ok || int(ref)+ArrDataOff+int(n) > len(e.mem) {
		return nil, false
	}
	return e.mem[ref+ArrDataOff : ref+ArrDataOff+n], true
}

// setFault records the first fault of the instruction (later faults in
// the same instruction do not overwrite it), which stops the run. The
// current closure keeps executing — a Mov's write runs after a
// faulted read — and the run loop delivers the fault trap once the
// closure returns.
func (e *fexec) setFault(f FaultCode) uint32 {
	if e.fault == 0 {
		e.fault = f
	}
	return 0
}

// raise records the kernel-entry trap of the run's last instruction, in the
// executor's own Trap: a poll, ret or trap allocates nothing.
func (e *fexec) raise(kind TrapKind, a, b uint16) {
	e.tbuf = Trap{Kind: kind, A: a, B: b, PC: e.npc}
	e.trap = &e.tbuf
}

// execPrefix runs fr's first m instructions one closure each, m short of
// the run's length, so neither a branch nor a kernel entry is among them.
// It is the cold path of a run that would cross the runaway bound, which
// RunLegacy checks per instruction.
func (fz *Fused) execPrefix(e *fexec, fr *fusedRun, m int) (*Trap, int) {
	e.fault = 0
	for i, op := range fz.ops[fr.lo : int(fr.lo)+m] {
		op(e)
		if e.fault != 0 {
			return fz.faulted(e, fr, i+1), i + 1
		}
	}
	e.cpu.PC = fz.pcOf(fr, int(fr.lo)+m)
	return nil, m
}

// faulted delivers the fault of fr's n-th instruction: a faulting
// instruction leaves cpu.PC at its own start, and the trap's PC is the
// next instruction.
func (fz *Fused) faulted(e *fexec, fr *fusedRun, n int) *Trap {
	last := int(fr.lo) + n - 1
	e.cpu.PC = fz.pcOf(fr, last)
	e.tbuf = Trap{Kind: TrapFault, Fault: e.fault, PC: e.cpu.PC + fz.p.instrs[last].Size}
	return &e.tbuf
}

// FusedRunner executes fused programs. It exists so steady-state
// dispatch allocates nothing: the executor state (including the register
// file the closures reach through the *fexec) lives in the runner, and a
// kernel node reuses one runner across every slice it runs. The zero
// value is ready to use. Not safe for concurrent use.
type FusedRunner struct {
	e fexec
}

// Run is RunLegacy over fz, one whole run at a time, with byte-identical
// observables, which the differential suite pins. Only a run's last
// member can be a poll, so checking the budget once per run is exact; a
// run that would cross the runaway bound runs only up to it.
// Every PC a thread resumes at (0, a branch target, the instruction after
// a kernel entry) heads a run; any other PC is an error. The returned
// Trap belongs to the runner and is valid until its next Run: callers
// consume it before running again, as the kernel's trap dispatcher does.
func (rn *FusedRunner) Run(s *Spec, fz *Fused, cpu *CPU, mem []byte, budget int) (*Trap, uint64, int, error) {
	e := &rn.e
	e.cpu, e.mem = cpu, mem
	e.fp, e.self = cpu.FP, cpu.Self
	e.tempBase, e.litBase = cpu.TempBase, cpu.LitBase
	e.mc, e.be = uint64(s.MemCycles), bigEndian(s)
	e.cycles = 0
	e.preempt = cpu.Preempt
	e.r, e.depth = cpu.Regs, cpu.TempDepth
	tr, n, err := e.run(s, fz, budget)
	cpu.Regs, cpu.TempDepth = e.r, e.depth
	return tr, e.cycles, n, err
}

// run is Run's loop: it runs each run's items from its head to its end,
// or to the trap or fault that leaves it early, on the register file and
// depth Run holds.
func (e *fexec) run(s *Spec, fz *Fused, budget int) (*Trap, int, error) {
	limit := budget + RunawayInstrs
	for n := 0; ; {
		fr := fz.runAt(e.cpu.PC)
		switch {
		case n >= limit:
			return nil, n, ErrRunaway
		case fr == nil:
			return nil, n, fmt.Errorf("%s: pc %#x does not start a fused run", s.Name, e.cpu.PC)
		case n+int(fr.hi-fr.lo) > limit:
			tr, did := fz.execPrefix(e, fr, limit-n)
			if tr != nil {
				return tr, n + did, nil
			}
			return nil, limit, ErrRunaway
		case n+int(fr.hi-fr.lo)-1 >= budget:
			e.preempt = true
		}
		e.npc, e.fault, e.trap = fr.end, 0, nil
		for k, op := range fz.items[fr.ilo:fr.ihi] {
			op(e)
			if e.fault != 0 {
				did := -int(e.unran)
				for _, w := range fz.width[fr.ilo : int(fr.ilo)+k+1] {
					did += int(w)
				}
				e.unran = 0
				return fz.faulted(e, fr, did), n + did, nil
			}
		}
		n += int(fr.hi - fr.lo)
		e.cpu.PC = e.npc
		if e.trap != nil {
			return e.trap, n, nil
		}
	}
}

// RunFused is the convenience form for callers without a long-lived
// runner (tests, benchmarks). Kernel nodes hold a FusedRunner instead so
// dispatch stays allocation-free.
func RunFused(s *Spec, fz *Fused, cpu *CPU, mem []byte, budget int) (*Trap, uint64, int, error) {
	var rn FusedRunner
	return rn.Run(s, fz, cpu, mem, budget)
}

// Run executes instructions until one enters the kernel, returning the
// trap, the cycles consumed, and the instruction count; the budget only
// requests a reschedule (see RunLegacy). It is the one-shot
// convenience for tests: predecode, plan, fuse, run. Callers that hold a
// long-lived code object Fuse once and keep a FusedRunner. Code that
// does not predecode cleanly runs on the legacy byte-at-a-time loop,
// which fails at the instruction that does not decode.
func Run(s *Spec, cpu *CPU, code []byte, mem []byte, budget int) (*Trap, uint64, int, error) {
	if p, err := Predecode(s, code, 0); err == nil {
		if fz := Fuse(s, p, PlanFusion(p)); fz != nil {
			return RunFused(s, fz, cpu, mem, budget)
		}
	}
	return RunLegacy(s, cpu, code, mem, budget)
}
