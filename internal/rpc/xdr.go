// Package rpc implements the daemon wire protocol substrate: XDR
// serialization (an RFC 4506 subset), length-prefixed message framing
// with program/version/procedure headers, and the client call machinery
// with serial matching and asynchronous event delivery. The remote driver
// and the daemon build on it.
package rpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Maximum sizes, enforced on both encode and decode so a malicious or
// corrupt peer cannot make the other side allocate unboundedly.
const (
	MaxStringLen = 4 * 1024 * 1024
	MaxArrayLen  = 65536
)

// Marshal encodes v (a struct, pointer to struct, or basic value) into
// XDR bytes. Supported kinds: bool, int32, uint32, int64, uint64, int,
// uint, float64, string, []byte, slices of supported kinds, and nested
// structs. int/uint are transmitted as 64-bit. Unexported fields are
// skipped.
//
// Struct and pointer-to-struct values run on a compiled codec plan (see
// xdr_plan.go): the first Marshal of a type pays for plan compilation,
// every later call executes flat field ops with no per-field reflection
// and exactly one allocation (the output buffer, sized by a pre-pass).
func Marshal(v interface{}) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// AppendMarshal encodes v like Marshal but appends to buf, so callers
// holding a reusable buffer encode with zero allocations in the steady
// state. The appended slice is returned (buf's array is reused when its
// capacity suffices).
func AppendMarshal(buf []byte, v interface{}) ([]byte, error) {
	if v != nil {
		t := reflect.TypeOf(v)
		switch t.Kind() {
		case reflect.Ptr:
			if t.Elem().Kind() == reflect.Struct {
				if p := planFor(t.Elem()); p != nil {
					rv := reflect.ValueOf(v)
					if rv.IsNil() {
						return nil, fmt.Errorf("xdr: cannot encode nil pointer")
					}
					return appendPlanned(buf, p, rv.UnsafePointer())
				}
			}
		case reflect.Struct:
			if p := planFor(t); p != nil {
				// A bare struct value inside an interface is not
				// addressable; copy it once to get a stable base pointer.
				rv := reflect.New(t)
				rv.Elem().Set(reflect.ValueOf(v))
				return appendPlanned(buf, p, rv.UnsafePointer())
			}
		}
	}
	// Reflective fallback: non-struct values and plan-rejected shapes.
	e := &encoder{buf: buf}
	if err := e.encode(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// MarshalSize returns the exact number of bytes AppendMarshal appends
// for a pointer to a struct that runs on a compiled plan, so a caller
// keeping buffers of different sizes can pick one before encoding. It
// returns 0 for anything else (the reflective fallback sizes nothing in
// advance): such a caller then starts small and lets append grow.
func MarshalSize(v interface{}) int {
	if v == nil {
		return 0
	}
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
		return 0
	}
	p := planFor(t.Elem())
	rv := reflect.ValueOf(v)
	if p == nil || rv.IsNil() {
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

// MarshalReflect is the original reflective encoder, retained as the
// semantic reference: differential tests and the benchreport T2b
// ablation compare the compiled plans against it, and it remains the
// fallback for shapes plans cannot express.
func MarshalReflect(v interface{}) ([]byte, error) {
	e := &encoder{}
	if err := e.encode(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return e.buf, nil
}

type encoder struct {
	buf []byte
}

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) bytes(b []byte) error {
	if len(b) > MaxStringLen {
		return fmt.Errorf("xdr: byte string of %d exceeds limit", len(b))
	}
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	// Pad to 4-byte boundary.
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
	return nil
}

func (e *encoder) encode(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return fmt.Errorf("xdr: cannot encode nil pointer")
		}
		return e.encode(v.Elem())
	case reflect.Bool:
		if v.Bool() {
			e.u32(1)
		} else {
			e.u32(0)
		}
	case reflect.Int32:
		e.u32(uint32(int32(v.Int())))
	case reflect.Uint32:
		e.u32(uint32(v.Uint()))
	case reflect.Int64, reflect.Int:
		e.u64(uint64(v.Int()))
	case reflect.Uint64, reflect.Uint:
		e.u64(v.Uint())
	case reflect.Float64:
		e.u64(math.Float64bits(v.Float()))
	case reflect.String:
		return e.bytes([]byte(v.String()))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return e.bytes(v.Bytes())
		}
		if v.Len() > MaxArrayLen {
			return fmt.Errorf("xdr: array of %d exceeds limit", v.Len())
		}
		e.u32(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := e.encode(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := e.encode(v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("xdr: unsupported kind %s", v.Kind())
	}
	return nil
}

// Unmarshal decodes XDR bytes into v, which must be a non-nil pointer.
// It errors on truncated input and on trailing bytes. Struct targets
// decode through the same compiled plans as Marshal.
func Unmarshal(data []byte, v interface{}) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("xdr: Unmarshal target must be a non-nil pointer")
	}
	if t := rv.Type().Elem(); t.Kind() == reflect.Struct {
		if p := planFor(t); p != nil {
			var a byteArena
			pos, err := decodePlan(data, 0, p.ops, rv.UnsafePointer(), &a)
			if err != nil {
				return err
			}
			if pos != len(data) {
				return fmt.Errorf("xdr: %d trailing bytes", len(data)-pos)
			}
			return nil
		}
	}
	return UnmarshalReflect(data, v)
}

// UnmarshalReflect is the original reflective decoder, kept as the
// reference implementation (see MarshalReflect) and the fallback for
// non-struct targets and plan-rejected types.
func UnmarshalReflect(data []byte, v interface{}) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("xdr: Unmarshal target must be a non-nil pointer")
	}
	d := &decoder{buf: data}
	if err := d.decode(rv.Elem()); err != nil {
		return err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("xdr: %d trailing bytes", len(d.buf)-d.pos)
	}
	return nil
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, fmt.Errorf("xdr: truncated input at %d", d.pos)
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, fmt.Errorf("xdr: truncated input at %d", d.pos)
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxStringLen {
		return nil, fmt.Errorf("xdr: byte string of %d exceeds limit", n)
	}
	padded := int(n) + (4-int(n)%4)%4
	if d.pos+padded > len(d.buf) {
		return nil, fmt.Errorf("xdr: truncated byte string at %d", d.pos)
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:d.pos+int(n)])
	d.pos += padded
	return out, nil
}

func (d *decoder) decode(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		u, err := d.u32()
		if err != nil {
			return err
		}
		if u > 1 {
			return fmt.Errorf("xdr: bool value %d", u)
		}
		v.SetBool(u == 1)
	case reflect.Int32:
		u, err := d.u32()
		if err != nil {
			return err
		}
		v.SetInt(int64(int32(u)))
	case reflect.Uint32:
		u, err := d.u32()
		if err != nil {
			return err
		}
		v.SetUint(uint64(u))
	case reflect.Int64, reflect.Int:
		u, err := d.u64()
		if err != nil {
			return err
		}
		v.SetInt(int64(u))
	case reflect.Uint64, reflect.Uint:
		u, err := d.u64()
		if err != nil {
			return err
		}
		v.SetUint(u)
	case reflect.Float64:
		u, err := d.u64()
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(u))
	case reflect.String:
		b, err := d.bytes()
		if err != nil {
			return err
		}
		v.SetString(string(b))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.bytes()
			if err != nil {
				return err
			}
			v.SetBytes(b)
			return nil
		}
		n, err := d.u32()
		if err != nil {
			return err
		}
		if n > MaxArrayLen {
			return fmt.Errorf("xdr: array of %d exceeds limit", n)
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := d.decode(s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := d.decode(v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("xdr: unsupported kind %s", v.Kind())
	}
	return nil
}
