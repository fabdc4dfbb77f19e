// Package typedparams implements libvirt-style typed parameters: a
// forward-compatible container of named scalar values used by every API
// that may grow new attributes over time without breaking the wire
// protocol or the function signatures.
package typedparams

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the scalar type held by a Param.
type Kind int

// Supported scalar kinds, mirroring virTypedParameter.
const (
	Int Kind = 1 + iota
	UInt
	LLong
	ULLong
	Double
	Boolean
	String
)

var kindNames = map[Kind]string{
	Int:     "int",
	UInt:    "uint",
	LLong:   "llong",
	ULLong:  "ullong",
	Double:  "double",
	Boolean: "boolean",
	String:  "string",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k is one of the supported kinds.
func (k Kind) Valid() bool { return k >= Int && k <= String }

// MaxFieldLength bounds parameter names, as in libvirt's
// VIR_TYPED_PARAM_FIELD_LENGTH.
const MaxFieldLength = 80

// Param is one named, typed scalar.
type Param struct {
	Field string
	Kind  Kind

	I int32
	U uint32
	L int64
	// UL holds ULLong values.
	UL uint64
	D  float64
	B  bool
	S  string
}

// Value returns the param's value as an interface for display.
func (p Param) Value() interface{} {
	switch p.Kind {
	case Int:
		return p.I
	case UInt:
		return p.U
	case LLong:
		return p.L
	case ULLong:
		return p.UL
	case Double:
		return p.D
	case Boolean:
		return p.B
	case String:
		return p.S
	}
	return nil
}

// String renders "field=value" for display.
func (p Param) String() string {
	switch p.Kind {
	case Double:
		return fmt.Sprintf("%s=%s", p.Field, strconv.FormatFloat(p.D, 'f', -1, 64))
	case Boolean:
		if p.B {
			return p.Field + "=yes"
		}
		return p.Field + "=no"
	default:
		return fmt.Sprintf("%s=%v", p.Field, p.Value())
	}
}

// List is an ordered collection of Params with unique field names.
type List struct {
	params []Param
	index  map[string]int
}

// NewList returns an empty parameter list.
func NewList() *List {
	return &List{index: make(map[string]int)}
}

// Len returns the number of parameters in the list.
func (l *List) Len() int { return len(l.params) }

// Params returns the parameters in insertion order. The returned slice is
// shared; callers must not mutate it.
func (l *List) Params() []Param { return l.params }

// validateField checks a field name against libvirt's constraints.
func validateField(field string) error {
	if field == "" {
		return fmt.Errorf("typedparams: empty field name")
	}
	if len(field) > MaxFieldLength {
		return fmt.Errorf("typedparams: field %q exceeds %d bytes", field, MaxFieldLength)
	}
	if strings.ContainsAny(field, " \t\n=") {
		return fmt.Errorf("typedparams: field %q contains forbidden characters", field)
	}
	return nil
}

func (l *List) add(p Param) error {
	if err := validateField(p.Field); err != nil {
		return err
	}
	if _, dup := l.index[p.Field]; dup {
		return fmt.Errorf("typedparams: duplicate field %q", p.Field)
	}
	if l.index == nil {
		l.index = make(map[string]int)
	}
	l.index[p.Field] = len(l.params)
	l.params = append(l.params, p)
	return nil
}

// AddInt appends a signed 32-bit parameter.
func (l *List) AddInt(field string, v int32) error {
	return l.add(Param{Field: field, Kind: Int, I: v})
}

// AddUInt appends an unsigned 32-bit parameter.
func (l *List) AddUInt(field string, v uint32) error {
	return l.add(Param{Field: field, Kind: UInt, U: v})
}

// AddLLong appends a signed 64-bit parameter.
func (l *List) AddLLong(field string, v int64) error {
	return l.add(Param{Field: field, Kind: LLong, L: v})
}

// AddULLong appends an unsigned 64-bit parameter.
func (l *List) AddULLong(field string, v uint64) error {
	return l.add(Param{Field: field, Kind: ULLong, UL: v})
}

// AddDouble appends a float64 parameter.
func (l *List) AddDouble(field string, v float64) error {
	return l.add(Param{Field: field, Kind: Double, D: v})
}

// AddBoolean appends a boolean parameter.
func (l *List) AddBoolean(field string, v bool) error {
	return l.add(Param{Field: field, Kind: Boolean, B: v})
}

// AddString appends a string parameter.
func (l *List) AddString(field string, v string) error {
	return l.add(Param{Field: field, Kind: String, S: v})
}

// Get returns the parameter named field.
func (l *List) Get(field string) (Param, bool) {
	i, ok := l.index[field]
	if !ok {
		return Param{}, false
	}
	return l.params[i], true
}

// GetUInt returns the uint value of field, or an error if the field is
// absent or of a different kind.
func (l *List) GetUInt(field string) (uint32, error) {
	p, ok := l.Get(field)
	if !ok {
		return 0, fmt.Errorf("typedparams: field %q not present", field)
	}
	if p.Kind != UInt {
		return 0, fmt.Errorf("typedparams: field %q has kind %v, want uint", field, p.Kind)
	}
	return p.U, nil
}

// GetString returns the string value of field.
func (l *List) GetString(field string) (string, error) {
	p, ok := l.Get(field)
	if !ok {
		return "", fmt.Errorf("typedparams: field %q not present", field)
	}
	if p.Kind != String {
		return "", fmt.Errorf("typedparams: field %q has kind %v, want string", field, p.Kind)
	}
	return p.S, nil
}

// GetULLong returns the ullong value of field.
func (l *List) GetULLong(field string) (uint64, error) {
	p, ok := l.Get(field)
	if !ok {
		return 0, fmt.Errorf("typedparams: field %q not present", field)
	}
	if p.Kind != ULLong {
		return 0, fmt.Errorf("typedparams: field %q has kind %v, want ullong", field, p.Kind)
	}
	return p.UL, nil
}

// GetBoolean returns the boolean value of field.
func (l *List) GetBoolean(field string) (bool, error) {
	p, ok := l.Get(field)
	if !ok {
		return false, fmt.Errorf("typedparams: field %q not present", field)
	}
	if p.Kind != Boolean {
		return false, fmt.Errorf("typedparams: field %q has kind %v, want boolean", field, p.Kind)
	}
	return p.B, nil
}

// Has reports whether field is present.
func (l *List) Has(field string) bool {
	_, ok := l.index[field]
	return ok
}

// Fields returns the sorted list of field names.
func (l *List) Fields() []string {
	out := make([]string, 0, len(l.params))
	for _, p := range l.params {
		out = append(out, p.Field)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	out := NewList()
	out.params = make([]Param, len(l.params))
	copy(out.params, l.params)
	for k, v := range l.index {
		out.index[k] = v
	}
	return out
}

// String renders the whole list for display, one "field=value" per entry
// in insertion order, space separated.
func (l *List) String() string {
	parts := make([]string, len(l.params))
	for i, p := range l.params {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}
