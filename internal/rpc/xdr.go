// Package rpc implements the daemon wire protocol substrate: XDR
// serialization (an RFC 4506 subset), length-prefixed message framing
// with program/version/procedure headers, and the client call machinery
// with serial matching and asynchronous event delivery. The remote driver
// and the daemon build on it.
package rpc

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Maximum sizes, enforced on both encode and decode so a malicious or
// corrupt peer cannot make the other side allocate unboundedly.
const (
	MaxStringLen = 4 * 1024 * 1024
	MaxArrayLen  = 65536
)

// Marshal encodes v, a struct or non-nil pointer to struct, into XDR
// bytes. Supported field kinds: bool, int32, uint32, int64, uint64, int,
// uint, float64, string, []byte, slices of supported kinds, and nested
// structs. int/uint are transmitted as 64-bit. Unexported fields are
// skipped.
//
// Encoding runs on a compiled codec plan (see xdr_plan.go): the first
// Marshal of a type pays for plan compilation, every later call executes
// flat field ops with no per-field reflection and exactly one allocation
// (the output buffer, sized by a pre-pass). A value no plan can be
// compiled for is refused with a *NoPlanError.
func Marshal(v interface{}) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// NoPlanError is returned by Marshal, AppendMarshal and Unmarshal for a
// value that is not a struct (or pointer to one) or whose struct type
// holds a kind the wire format has no encoding for.
type NoPlanError struct {
	Type   reflect.Type // nil for an untyped nil value
	Reason string       // why plan compilation refused the type
}

func (e *NoPlanError) Error() string {
	return fmt.Sprintf("xdr: no codec plan for %v: %s", e.Type, e.Reason)
}

// AppendMarshal encodes v like Marshal but appends to buf, so callers
// holding a reusable buffer encode with zero allocations in the steady
// state. The appended slice is returned (buf's array is reused when its
// capacity suffices).
func AppendMarshal(buf []byte, v interface{}) ([]byte, error) {
	if v == nil {
		return nil, &NoPlanError{Reason: "nil value"}
	}
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
		return appendValue(buf, v)
	}
	p, err := planFor(t.Elem())
	if err != nil {
		return nil, err
	}
	rv := reflect.ValueOf(v)
	if rv.IsNil() {
		return nil, fmt.Errorf("xdr: cannot encode nil pointer")
	}
	// v does not escape: a caller's reply or argument struct may live on
	// its stack.
	return appendPlanned(buf, p, rv.UnsafePointer())
}

// appendValue encodes a bare struct value. An interface holds a struct
// that has a plan indirectly (only single-pointer structs are stored in
// the data word, and pointers have no plan), so the data word is the
// base, read in place without copying v.
func appendValue(buf []byte, v interface{}) ([]byte, error) {
	p, err := planFor(reflect.TypeOf(v))
	if err != nil {
		return nil, err
	}
	return appendPlanned(buf, p, (*eface)(unsafe.Pointer(&v)).data)
}

// eface is the runtime layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

// MarshalSize returns the exact number of bytes AppendMarshal appends
// for a non-nil pointer to a struct, so a caller keeping buffers of
// different sizes can pick one before encoding. It returns 0 for
// anything else, including every value AppendMarshal refuses.
func MarshalSize(v interface{}) int {
	if v == nil {
		return 0
	}
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
		return 0
	}
	p, err := planFor(t.Elem())
	rv := reflect.ValueOf(v)
	if err != nil || rv.IsNil() {
		return 0
	}
	return planSize(p.ops, rv.UnsafePointer())
}

// appendPlanned runs the encode ops. A buffer without spare capacity is
// sized exactly by a pre-pass so a bare Marshal allocates once; a reused
// buffer (frame pool, reply pool) skips the sizing walk and relies on
// its capacity, growing geometrically only until the pool warms up.
func appendPlanned(buf []byte, p *codecPlan, base unsafe.Pointer) ([]byte, error) {
	if cap(buf) == len(buf) {
		need := planSize(p.ops, base)
		nb := make([]byte, len(buf), len(buf)+need)
		copy(nb, buf)
		buf = nb
	}
	return appendPlan(buf, p.ops, base)
}

// Unmarshal decodes XDR bytes into v, which must be a non-nil pointer to
// a struct, through the same compiled plans as Marshal. It errors on
// truncated input and on trailing bytes. A peer's bytes go to Conn.Unmarshal.
func Unmarshal(data []byte, v interface{}) error { return unmarshal(data, v, nil) }

func unmarshal(data []byte, v interface{}, recent *recentStrings) error {
	if v == nil {
		return &NoPlanError{Reason: "nil value"}
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("xdr: Unmarshal target must be a non-nil pointer")
	}
	p, err := planFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	a := byteArena{recent: recent}
	pos, err := decodePlan(data, 0, p.ops, rv.UnsafePointer(), &a)
	if err != nil {
		return err
	}
	if pos != len(data) {
		return fmt.Errorf("xdr: %d trailing bytes", len(data)-pos)
	}
	return nil
}
