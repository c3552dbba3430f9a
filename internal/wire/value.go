// Package wire implements the machine-independent network format of the
// enhanced system: big-endian integers, IEEE-754 reals, OIDs for swizzled
// references, strings by value (immutable objects move by duplication), and
// the machine-independent activation-record format used for migrating
// thread state (§3.5).
//
// Conversion between a node's machine-dependent representation and the
// network format is performed by a Converter, which also accounts for the
// number of conversion-procedure calls — the paper attributes most of the
// enhanced system's migration overhead to these calls ("an average of 1–2
// calls of conversion procedures are performed for each byte being
// transferred", §3.6) and guesses that efficient routines would halve the
// penalty. One Converter type implements three regimes, each a row of
// costs: PerValue models the paper's per-value recursive-descent routines,
// Batched the optimized implementation that tests the guess, and Raw the
// original homogeneous system, which converts nothing.
package wire

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/oid"
)

// WKind tags a wire value.
type WKind byte

// Wire value kinds.
const (
	WInt    WKind = iota // 32-bit integer (also bools, nodes, conditions)
	WReal                // IEEE-754 binary32
	WRef                 // object reference as an OID
	WString              // immutable string, by value
	WNil                 // nil reference
	WRaw                 // raw machine word (homogeneous fast path, no conversion)
)

func (k WKind) String() string {
	switch k {
	case WInt:
		return "int"
	case WReal:
		return "real"
	case WRef:
		return "ref"
	case WString:
		return "string"
	case WNil:
		return "nil"
	case WRaw:
		return "raw"
	}
	return fmt.Sprintf("wkind(%d)", byte(k))
}

// Value is one machine-independent value.
type Value struct {
	Kind WKind
	Bits uint32 // int value, IEEE bits, OID, or raw machine word
	Str  []byte // WString payload
}

// IntV / RealBitsV / RefV / StringV / NilV construct values.
func IntV(v uint32) Value      { return Value{Kind: WInt, Bits: v} }
func RealBitsV(b uint32) Value { return Value{Kind: WReal, Bits: b} }
func RefV(o oid.OID) Value     { return Value{Kind: WRef, Bits: uint32(o)} }
func StringV(b []byte) Value   { return Value{Kind: WString, Str: b} }
func NilV() Value              { return Value{Kind: WNil} }
func RawV(w uint32) Value      { return Value{Kind: WRaw, Bits: w} }

// OID returns the value as an OID (WRef only).
func (v Value) OID() oid.OID { return oid.OID(v.Bits) }

// WireSize returns the encoded size in bytes.
func (v Value) WireSize() int {
	if v.Kind == WString {
		return 1 + 4 + len(v.Str)
	}
	return 1 + 4
}

// Stats counts conversion work. Calls is the number of conversion-procedure
// calls (the paper's cost driver); Values and Bytes measure volume. The
// per-kind fields break both down by wire value kind — the paper's Table 1
// attributes conversion cost per value kind, and the metrics registry
// exports them as conv_calls{kind=...}. The struct stays comparable (plain
// integer fields only) so callers can test against the zero value.
type Stats struct {
	Calls  uint64
	Values uint64
	Bytes  uint64

	// Per-kind breakdown (ints cover bools/nodes/conditions and raw words).
	IntCalls  uint64
	RealCalls uint64
	RefCalls  uint64
	IntVals   uint64
	RealVals  uint64
	RefVals   uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Calls += other.Calls
	s.Values += other.Values
	s.Bytes += other.Bytes
	s.IntCalls += other.IntCalls
	s.RealCalls += other.RealCalls
	s.RefCalls += other.RefCalls
	s.IntVals += other.IntVals
	s.RealVals += other.RealVals
	s.RefVals += other.RefVals
}

// Regime names one of the three conversion regimes a Converter implements.
type Regime uint8

// Conversion regimes; rows gives each one's costs.
const (
	// PerValue models the prototype's hand-written recursive-descent
	// conversion routines: "depending on the processor type, 2–3 procedure
	// calls are performed to convert a simple integer value to or from
	// network format" (§3.5). An integer costs two calls (two 16-bit
	// half-word conversions, htons-style, plus composition folded in), a
	// real three (unpack, convert format, repack), a reference two (swizzle
	// lookup plus conversion).
	PerValue Regime = iota
	// Batched models efficient conversion routines: one call per value,
	// with the same semantic effect. The paper predicts roughly a 50%
	// reduction of the migration penalty with such routines (§3.6).
	Batched
	// Raw is the homogeneous fast path of the original system: machine
	// words travel unconverted (both ends share one architecture), as in
	// the multi-protocol RPC optimization the paper cites ([SC88], §3.1).
	// References are still swizzled: object identity must survive even
	// homogeneous moves. It is only correct between identical architectures.
	Raw
	NumRegimes
)

// costRow is one regime's costs: conversion-procedure calls per int, real
// and ref value, and whether ints and reals travel as raw machine words.
type costRow struct {
	perInt, perReal, perRef uint64
	raw                     bool
}

var rows = [NumRegimes]costRow{
	PerValue: {perInt: 2, perReal: 3, perRef: 2},
	Batched:  {perInt: 1, perReal: 1, perRef: 1},
	Raw:      {raw: true},
}

// Converter translates 32-bit machine slots to and from wire values under
// one regime, accounting for conversion-procedure calls. Pointer words
// must be swizzled by the caller (the kernel owns the address-to-OID
// mapping) and passed as an OID.
type Converter struct {
	row   costRow
	stats Stats
}

// NewConverter returns a converter for regime r with zeroed counters.
func NewConverter(r Regime) Converter { return Converter{row: rows[r]} }

// Stats returns the accumulated counters.
func (c *Converter) Stats() Stats { return c.stats }

// charge accounts one value of kind k costing calls conversion calls.
func (c *Converter) charge(k WKind, calls uint64) {
	s := &c.stats
	s.Calls += calls
	s.Values++
	s.Bytes += 4
	switch k {
	case WReal:
		s.RealCalls += calls
		s.RealVals++
	case WRef:
		s.RefCalls += calls
		s.RefVals++
	default:
		s.IntCalls += calls
		s.IntVals++
	}
}

// IntToWire converts an integer machine word.
func (c *Converter) IntToWire(raw uint32) Value {
	c.charge(WInt, c.row.perInt)
	if c.row.raw {
		return RawV(raw)
	}
	return IntV(raw)
}

// RealToWire converts a real in the architecture float format to IEEE bits.
func (c *Converter) RealToWire(bits uint32, f arch.FloatCodec) Value {
	c.charge(WReal, c.row.perReal)
	if c.row.raw {
		return RawV(bits)
	}
	return RealBitsV(arch.IEEEFloat{}.Enc(f.Dec(bits)))
}

// RefToWire converts a swizzled reference.
func (c *Converter) RefToWire(o oid.OID) Value {
	c.charge(WRef, c.row.perRef)
	if o == oid.Nil {
		return NilV()
	}
	return RefV(o)
}

// IntFromWire converts back to a machine integer. A raw converter takes
// any value's bits; the others take an int or a raw word.
func (c *Converter) IntFromWire(v Value) (uint32, error) {
	c.charge(WInt, c.row.perInt)
	if !c.row.raw && v.Kind != WInt && v.Kind != WRaw {
		return 0, fmt.Errorf("wire: %v where int expected", v.Kind)
	}
	return v.Bits, nil
}

// RealFromWire converts IEEE bits to the architecture float format. A raw
// converter takes any value's bits unconverted; the others take a real, or
// a raw word whose bits they keep.
func (c *Converter) RealFromWire(v Value, f arch.FloatCodec) (uint32, error) {
	c.charge(WReal, c.row.perReal)
	if c.row.raw || v.Kind == WRaw {
		return v.Bits, nil
	}
	if v.Kind != WReal {
		return 0, fmt.Errorf("wire: %v where real expected", v.Kind)
	}
	return f.Enc(arch.IEEEFloat{}.Dec(v.Bits)), nil
}

// RefFromWire extracts the OID.
func (c *Converter) RefFromWire(v Value) (oid.OID, error) {
	c.charge(WRef, c.row.perRef)
	switch v.Kind {
	case WNil:
		return oid.Nil, nil
	case WRef:
		return oid.OID(v.Bits), nil
	}
	return 0, fmt.Errorf("wire: %v where ref expected", v.Kind)
}
