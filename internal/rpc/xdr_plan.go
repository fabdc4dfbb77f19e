package rpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// Compiled codec plans. Steady-state RPC traffic encodes the same
// handful of wire structs millions of times, and walking each field
// through reflect.Value on every call dominated small-call cost. A plan
// compiles a struct type once into a flat list of ops — accumulated
// field offset plus primitive kind — and executes it with direct unsafe
// loads/stores. Nested structs flatten into the parent's op list; only
// slices keep a sub-plan, run per element. Types the compiler cannot
// express (pointers, maps, channels, interfaces, recursion) have no wire
// encoding: planFor refuses them with a *NoPlanError. The reflective
// walk the plans replaced lives on in xdr_reflect_test.go as the
// reference the differential tests compare against.

type opKind uint8

const (
	opBool opKind = iota
	opI32
	opU32
	opI64
	opU64
	opInt
	opUint
	opF64
	opString
	opBytes
	opSlice
	opRun
)

// planOp is one encode/decode step at an offset from the struct base.
type planOp struct {
	kind opKind
	off  uintptr
	name string // qualified field name, used only on error paths

	// Slice ops carry the element sub-plan and the reflect machinery
	// needed to allocate GC-typed backing arrays on decode.
	elem     *codecPlan
	typ      reflect.Type // the slice type itself
	elemSize uintptr

	// Run ops fuse consecutive fixed-width fields: runBytes wire bytes
	// handled with a single bounds/capacity check, then each sub-op
	// loads/stores at a precomputed wire offset.
	run      []planOp
	runBytes int
}

// fixedWireSize returns the encoded size of a fixed-width op, or 0 for
// variable-length ops.
func fixedWireSize(k opKind) int {
	switch k {
	case opBool, opI32, opU32:
		return 4
	case opI64, opU64, opInt, opUint, opF64:
		return 8
	}
	return 0
}

// coalesceRuns rewrites every maximal sequence of two or more
// fixed-width ops into one opRun, recursing into slice element plans.
// Wire-struct traffic is dominated by runs of counters and ids, so this
// turns most of a message into a handful of bounds checks.
func coalesceRuns(ops []planOp) []planOp {
	out := make([]planOp, 0, len(ops))
	for i := 0; i < len(ops); {
		if ops[i].kind == opSlice {
			ops[i].elem.ops = coalesceRuns(ops[i].elem.ops)
			out = append(out, ops[i])
			i++
			continue
		}
		j := i
		bytes := 0
		for j < len(ops) {
			n := fixedWireSize(ops[j].kind)
			if n == 0 {
				break
			}
			bytes += n
			j++
		}
		if j-i >= 2 {
			out = append(out, planOp{kind: opRun, run: ops[i:j:j], runBytes: bytes})
			i = j
			continue
		}
		out = append(out, ops[i])
		i++
	}
	return out
}

type codecPlan struct {
	ops []planOp
}

// sliceHeader mirrors the runtime slice layout for reflection-free
// reads on the encode path and capacity reuse on decode. Fresh backing
// arrays are still allocated through reflect.MakeSlice so the GC sees
// them; reuse only ever shrinks or restores len within existing cap.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

// planCache maps reflect.Type → *codecPlan, or → *NoPlanError for a type
// the compiler rejected, so the refusal and its reason are also one
// lookup.
var planCache sync.Map

// planFor returns the compiled plan for a struct type, or the
// *NoPlanError saying why it has none.
func planFor(t reflect.Type) (*codecPlan, error) {
	v, ok := planCache.Load(t)
	if !ok {
		if p, err := compilePlan(t); err != nil {
			v = &NoPlanError{Type: t, Reason: err.Error()}
		} else {
			v = p
		}
		planCache.Store(t, v)
	}
	if p, ok := v.(*codecPlan); ok {
		return p, nil
	}
	return nil, v.(*NoPlanError)
}

func compilePlan(t reflect.Type) (*codecPlan, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("not a struct")
	}
	p := &codecPlan{}
	if err := addStructOps(p, t, 0, t.Name(), map[reflect.Type]bool{}); err != nil {
		return nil, err
	}
	p.ops = coalesceRuns(p.ops)
	return p, nil
}

// addStructOps flattens a struct's exported fields into the plan with
// offsets accumulated from base. inProgress guards against recursive
// types (reachable only through slices), which have no plan.
func addStructOps(p *codecPlan, t reflect.Type, base uintptr, prefix string, inProgress map[reflect.Type]bool) error {
	if inProgress[t] {
		return fmt.Errorf("recursive type %s", t)
	}
	inProgress[t] = true
	defer delete(inProgress, t)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if err := addFieldOp(p, f.Type, base+f.Offset, prefix+"."+f.Name, inProgress); err != nil {
			return err
		}
	}
	return nil
}

func addFieldOp(p *codecPlan, t reflect.Type, off uintptr, name string, inProgress map[reflect.Type]bool) error {
	simple := func(k opKind) {
		p.ops = append(p.ops, planOp{kind: k, off: off, name: name})
	}
	switch t.Kind() {
	case reflect.Bool:
		simple(opBool)
	case reflect.Int32:
		simple(opI32)
	case reflect.Uint32:
		simple(opU32)
	case reflect.Int64:
		simple(opI64)
	case reflect.Uint64:
		simple(opU64)
	case reflect.Int:
		simple(opInt)
	case reflect.Uint:
		simple(opUint)
	case reflect.Float64:
		simple(opF64)
	case reflect.String:
		simple(opString)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			simple(opBytes)
			return nil
		}
		sub := &codecPlan{}
		if err := addFieldOp(sub, t.Elem(), 0, name+"[]", inProgress); err != nil {
			return err
		}
		p.ops = append(p.ops, planOp{
			kind: opSlice, off: off, name: name,
			elem: sub, typ: t, elemSize: t.Elem().Size(),
		})
	case reflect.Struct:
		return addStructOps(p, t, off, name, inProgress)
	default:
		return fmt.Errorf("unsupported kind %s at %s", t.Kind(), name)
	}
	return nil
}

// planSize walks the value once and returns the exact encoded size, so
// the encode pass can grow the destination buffer in a single step.
func planSize(ops []planOp, base unsafe.Pointer) int {
	n := 0
	for i := range ops {
		op := &ops[i]
		p := unsafe.Add(base, op.off)
		switch op.kind {
		case opBool, opI32, opU32:
			n += 4
		case opI64, opU64, opInt, opUint, opF64:
			n += 8
		case opString:
			n += 4 + pad4(len(*(*string)(p)))
		case opBytes:
			n += 4 + pad4(len(*(*[]byte)(p)))
		case opSlice:
			sh := (*sliceHeader)(p)
			n += 4
			for j := 0; j < sh.len; j++ {
				n += planSize(op.elem.ops, unsafe.Add(sh.data, uintptr(j)*op.elemSize))
			}
		case opRun:
			n += op.runBytes
		}
	}
	return n
}

func pad4(n int) int { return n + (4-n%4)%4 }

func appendU32(buf []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(buf, v)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, v)
}

var zeroPad [4]byte

func appendPadded(buf, b []byte) []byte {
	buf = append(buf, b...)
	return append(buf, zeroPad[:(4-len(b)%4)%4]...)
}

// appendPlan executes the encode ops against the struct at base.
func appendPlan(buf []byte, ops []planOp, base unsafe.Pointer) ([]byte, error) {
	for i := range ops {
		op := &ops[i]
		p := unsafe.Add(base, op.off)
		switch op.kind {
		case opBool:
			if *(*bool)(p) {
				buf = appendU32(buf, 1)
			} else {
				buf = appendU32(buf, 0)
			}
		case opI32:
			buf = appendU32(buf, uint32(*(*int32)(p)))
		case opU32:
			buf = appendU32(buf, *(*uint32)(p))
		case opI64:
			buf = appendU64(buf, uint64(*(*int64)(p)))
		case opU64:
			buf = appendU64(buf, *(*uint64)(p))
		case opInt:
			buf = appendU64(buf, uint64(*(*int)(p)))
		case opUint:
			buf = appendU64(buf, uint64(*(*uint)(p)))
		case opF64:
			buf = appendU64(buf, math.Float64bits(*(*float64)(p)))
		case opString:
			s := *(*string)(p)
			if len(s) > MaxStringLen {
				return nil, fmt.Errorf("%s: xdr: byte string of %d exceeds limit", op.name, len(s))
			}
			buf = appendU32(buf, uint32(len(s)))
			buf = append(buf, s...)
			buf = append(buf, zeroPad[:(4-len(s)%4)%4]...)
		case opBytes:
			b := *(*[]byte)(p)
			if len(b) > MaxStringLen {
				return nil, fmt.Errorf("%s: xdr: byte string of %d exceeds limit", op.name, len(b))
			}
			buf = appendU32(buf, uint32(len(b)))
			buf = appendPadded(buf, b)
		case opSlice:
			sh := (*sliceHeader)(p)
			if sh.len > MaxArrayLen {
				return nil, fmt.Errorf("%s: xdr: array of %d exceeds limit", op.name, sh.len)
			}
			buf = appendU32(buf, uint32(sh.len))
			var err error
			for j := 0; j < sh.len; j++ {
				buf, err = appendPlan(buf, op.elem.ops, unsafe.Add(sh.data, uintptr(j)*op.elemSize))
				if err != nil {
					return nil, err
				}
			}
		case opRun:
			// One capacity check covers the whole run; fields then write
			// at precomputed offsets with no per-field growth.
			w := len(buf)
			if cap(buf)-w < op.runBytes {
				nb := make([]byte, w, (w+op.runBytes)+(w+op.runBytes)/2)
				copy(nb, buf)
				buf = nb
			}
			buf = buf[:w+op.runBytes]
			for k := range op.run {
				f := &op.run[k]
				q := unsafe.Add(base, f.off)
				switch f.kind {
				case opBool:
					var v uint32
					if *(*bool)(q) {
						v = 1
					}
					binary.BigEndian.PutUint32(buf[w:], v)
					w += 4
				case opI32:
					binary.BigEndian.PutUint32(buf[w:], uint32(*(*int32)(q)))
					w += 4
				case opU32:
					binary.BigEndian.PutUint32(buf[w:], *(*uint32)(q))
					w += 4
				case opI64:
					binary.BigEndian.PutUint64(buf[w:], uint64(*(*int64)(q)))
					w += 8
				case opU64:
					binary.BigEndian.PutUint64(buf[w:], *(*uint64)(q))
					w += 8
				case opInt:
					binary.BigEndian.PutUint64(buf[w:], uint64(*(*int)(q)))
					w += 8
				case opUint:
					binary.BigEndian.PutUint64(buf[w:], uint64(*(*uint)(q)))
					w += 8
				case opF64:
					binary.BigEndian.PutUint64(buf[w:], math.Float64bits(*(*float64)(q)))
					w += 8
				}
			}
		}
	}
	return buf, nil
}

// byteArena batches the many small string allocations of one decode
// pass into shared chunks: a bulk reply carrying hundreds of domain
// names costs one or two allocations instead of one per name. Chunks
// are append-only, so handed-out slices are never rewritten; a chunk
// never exceeds the bytes remaining in the message, bounding retained
// waste by the message size.
type byteArena struct {
	buf    []byte
	recent *recentStrings // the decoding connection's, or nil
}

// dup copies b, which is not empty, into the arena.
func (a *byteArena) dup(b []byte, remaining int) string {
	const chunk = 1024
	if cap(a.buf)-len(a.buf) < len(b) {
		if len(b) >= chunk/2 {
			return string(b)
		}
		a.buf = make([]byte, 0, min(chunk, remaining))
	}
	a.buf = append(a.buf, b...)
	return unsafe.String(&a.buf[len(a.buf)-len(b)], len(b))
}

// str returns b, which is not empty, as a string: an equal one from the
// connection's recent table, else an arena copy that joins the table.
func (a *byteArena) str(b []byte, remaining int) string {
	t := a.recent
	if t == nil || len(b) > 64 {
		return a.dup(b, remaining)
	}
	set := &t.sets[crc32.ChecksumIEEE(b)%uint32(len(t.sets))]
	t.mu.Lock()
	defer t.mu.Unlock()
	if set[0] != string(b) {
		if set[1] != string(b) {
			set[1] = a.dup(b, remaining)
		}
		set[0], set[1] = set[1], set[0]
	}
	return set[0]
}

// recentStrings holds the strings of up to 64 bytes a connection decoded
// last, in sets of two picked by a fixed hash, most recent first.
type recentStrings struct {
	mu   sync.Mutex
	sets [32][2]string
}

// decodePlan executes the decode ops into the struct at base, returning
// the new read position. Semantics mirror the reference decoder in
// xdr_reflect_test.go exactly (bool > 1 rejected, empty strings/bytes decode to non-nil
// zero-length values, limits enforced before allocation).
func decodePlan(buf []byte, pos int, ops []planOp, base unsafe.Pointer, a *byteArena) (int, error) {
	for i := range ops {
		op := &ops[i]
		p := unsafe.Add(base, op.off)
		switch op.kind {
		case opBool, opI32, opU32:
			if pos+4 > len(buf) {
				return pos, fmt.Errorf("xdr: truncated input at %d", pos)
			}
			u := binary.BigEndian.Uint32(buf[pos:])
			pos += 4
			switch op.kind {
			case opBool:
				if u > 1 {
					return pos, fmt.Errorf("%s: xdr: bool value %d", op.name, u)
				}
				*(*bool)(p) = u == 1
			case opI32:
				*(*int32)(p) = int32(u)
			default:
				*(*uint32)(p) = u
			}
		case opI64, opU64, opInt, opUint, opF64:
			if pos+8 > len(buf) {
				return pos, fmt.Errorf("xdr: truncated input at %d", pos)
			}
			u := binary.BigEndian.Uint64(buf[pos:])
			pos += 8
			switch op.kind {
			case opI64:
				*(*int64)(p) = int64(u)
			case opU64:
				*(*uint64)(p) = u
			case opInt:
				*(*int)(p) = int(u)
			case opUint:
				*(*uint)(p) = uint(u)
			default:
				*(*float64)(p) = math.Float64frombits(u)
			}
		case opString, opBytes:
			if pos+4 > len(buf) {
				return pos, fmt.Errorf("xdr: truncated input at %d", pos)
			}
			n := binary.BigEndian.Uint32(buf[pos:])
			pos += 4
			if n > MaxStringLen {
				return pos, fmt.Errorf("%s: xdr: byte string of %d exceeds limit", op.name, n)
			}
			padded := pad4(int(n))
			if pos+padded > len(buf) {
				return pos, fmt.Errorf("xdr: truncated byte string at %d", pos-4)
			}
			if op.kind == opString {
				if n == 0 {
					*(*string)(p) = ""
				} else if ex := *(*string)(p); len(ex) == int(n) && ex == string(buf[pos:pos+int(n)]) {
					// Decoding over a previous value whose bytes match
					// (stable names across monitoring sweeps): keep the
					// existing string, allocate nothing.
				} else {
					*(*string)(p) = a.str(buf[pos:pos+int(n)], len(buf)-pos)
				}
			} else {
				out := make([]byte, n)
				copy(out, buf[pos:])
				*(*[]byte)(p) = out
			}
			pos += padded
		case opSlice:
			if pos+4 > len(buf) {
				return pos, fmt.Errorf("xdr: truncated input at %d", pos)
			}
			n := int(binary.BigEndian.Uint32(buf[pos:]))
			pos += 4
			if n > MaxArrayLen {
				return pos, fmt.Errorf("%s: xdr: array of %d exceeds limit", op.name, n)
			}
			// Decoding over a slice with enough capacity reuses its
			// backing array (every element field is overwritten below),
			// so a steady-state poller pays no per-sweep allocation.
			// The caller opts in by passing a retained value; fresh
			// destinations are zero and always take the MakeSlice path.
			// The new header is stored through sliceHeader, whose data
			// field is a pointer the collector's write barrier sees, so
			// the destination never has to be boxed in a reflect.Value
			// and may sit on the caller's stack.
			sh := (*sliceHeader)(p)
			if n == 0 || sh.data == nil || sh.cap < n {
				*sh = sliceHeader{data: reflect.MakeSlice(op.typ, n, n).UnsafePointer(), len: n, cap: n}
			} else {
				sh.len = n
			}
			eb := sh.data
			var err error
			for j := 0; j < n; j++ {
				pos, err = decodePlan(buf, pos, op.elem.ops, unsafe.Add(eb, uintptr(j)*op.elemSize), a)
				if err != nil {
					return pos, err
				}
			}
		case opRun:
			// One truncation check covers the whole run.
			if pos+op.runBytes > len(buf) {
				return pos, fmt.Errorf("xdr: truncated input at %d", pos)
			}
			for k := range op.run {
				f := &op.run[k]
				q := unsafe.Add(base, f.off)
				switch f.kind {
				case opBool:
					u := binary.BigEndian.Uint32(buf[pos:])
					pos += 4
					if u > 1 {
						return pos, fmt.Errorf("%s: xdr: bool value %d", f.name, u)
					}
					*(*bool)(q) = u == 1
				case opI32:
					*(*int32)(q) = int32(binary.BigEndian.Uint32(buf[pos:]))
					pos += 4
				case opU32:
					*(*uint32)(q) = binary.BigEndian.Uint32(buf[pos:])
					pos += 4
				case opI64:
					*(*int64)(q) = int64(binary.BigEndian.Uint64(buf[pos:]))
					pos += 8
				case opU64:
					*(*uint64)(q) = binary.BigEndian.Uint64(buf[pos:])
					pos += 8
				case opInt:
					*(*int)(q) = int(binary.BigEndian.Uint64(buf[pos:]))
					pos += 8
				case opUint:
					*(*uint)(q) = uint(binary.BigEndian.Uint64(buf[pos:]))
					pos += 8
				case opF64:
					*(*float64)(q) = math.Float64frombits(binary.BigEndian.Uint64(buf[pos:]))
					pos += 8
				}
			}
		}
	}
	return pos, nil
}
