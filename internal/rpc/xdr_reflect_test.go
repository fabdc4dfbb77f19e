package rpc

// The original reflective XDR codec, kept as the semantic reference the
// compiled plans (xdr_plan.go) are differential-tested against:
// TestPlanMatchesReflect and TestPlanQuickEquality compare every
// encoding byte for byte and every decode value for value with it.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// MarshalReflect is the original reflective encoder.
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

// UnmarshalReflect is the original reflective decoder.
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
