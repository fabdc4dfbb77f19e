package xmlspec

import (
	"bytes"
	"encoding"
	"encoding/xml"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// A plan decodes one struct type. It is compiled once per type from the
// struct tags Marshal reads (name, name,attr, ,chardata and XMLName), so
// the schema is declared once, and run by the scanner in scan.go.
type plan struct {
	root         string // the XMLName tag the root element must match
	name, text   int    // indexes of the XMLName and ,chardata fields, or -1
	attrs, elems map[string]field
}

// field is a string or integer, or for an element also a struct, a
// pointer to one, or a slice of structs or strings, with the struct's
// plan (nil for a scalar).
type field struct {
	index int
	plan  *plan
}

var (
	plans    sync.Map // reflect.Type -> *plan, or the error refusing it
	nameType = reflect.TypeFor[xml.Name]()
	custom   = []reflect.Type{reflect.TypeFor[xml.Unmarshaler](),
		reflect.TypeFor[xml.UnmarshalerAttr](), reflect.TypeFor[encoding.TextUnmarshaler]()}
)

// planFor returns the plan of root type t, or why it has none.
func planFor(t reflect.Type) (*plan, error) {
	v, ok := plans.Load(t)
	if !ok {
		p, err := compile(t, true, map[reflect.Type]bool{})
		if v = p; err != nil {
			v = fmt.Errorf("xmlspec: no decode plan for %s: %w", t, err)
		}
		plans.Store(t, v)
	}
	if p, ok := v.(*plan); ok {
		return p, nil
	}
	return nil, v.(error)
}

// compile builds t's plan. open holds the types being compiled, so a
// recursive type is refused; go vet's structtag check refuses two
// fields with one name.
func compile(t reflect.Type, root bool, open map[reflect.Type]bool) (*plan, error) {
	if open[t] {
		return nil, fmt.Errorf("recursive type %s", t)
	}
	open[t] = true
	defer delete(open, t)
	p := &plan{name: -1, text: -1, attrs: map[string]field{}, elems: map[string]field{}}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("xml")
		name, opts, _ := strings.Cut(tag, ",")
		if tag == "-" || !sf.IsExported() && !sf.Anonymous {
			continue
		}
		list, elem := p.elems, opts == "" || opts == "omitempty"
		switch {
		case sf.Anonymous || strings.ContainsAny(name, " >") || sf.Name == "XMLName" && (!root || sf.Type != nameType || opts != ""):
			return nil, fmt.Errorf("field %s.%s: tag %q", t, sf.Name, tag)
		case sf.Name == "XMLName":
			p.root, p.name = name, i
			continue
		case opts == "attr" || opts == "attr,omitempty":
			list = p.attrs
		case tag == ",chardata" && p.text < 0:
			list, p.text = nil, i
		case !elem:
			return nil, fmt.Errorf("field %s.%s: tag %q", t, sf.Name, tag)
		}
		fp, err := compileType(sf.Type, elem, open)
		if err != nil {
			return nil, fmt.Errorf("field %s.%s: %w", t, sf.Name, err)
		}
		if name == "" {
			name = sf.Name
		}
		if list != nil {
			list[name] = field{i, fp}
		}
	}
	return p, nil
}

// compileType checks that the decoder supports t: an attribute or
// character data holds a string or integer, and an element may also
// hold a struct, a pointer to one, or a slice of structs or strings.
// It returns the plan of the struct an element decodes into.
func compileType(t reflect.Type, elem bool, open map[reflect.Type]bool) (*plan, error) {
	for _, c := range custom {
		if t.Implements(c) || reflect.PointerTo(t).Implements(c) {
			return nil, fmt.Errorf("%s implements %s", t, c)
		}
	}
	switch k := t.Kind(); {
	case k == reflect.String || k >= reflect.Int && k <= reflect.Uint64 && k != reflect.Uintptr:
		return nil, nil
	case !elem:
	case k == reflect.Struct && t != nameType:
		return compile(t, false, open)
	case k == reflect.Pointer && t.Elem().Kind() == reflect.Struct,
		k == reflect.Slice && (t.Elem().Kind() == reflect.String || t.Elem().Kind() == reflect.Struct):
		return compileType(t.Elem(), true, open)
	}
	return nil, fmt.Errorf("unsupported type %s", t)
}

// decodeError carries a failure out of the scanner to try.
type decodeError struct{ error }

// try runs f and returns the error a decoder failure in it carries.
func try(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(decodeError)
			if !ok {
				panic(r)
			}
			err = e.error
		}
	}()
	f()
	return nil
}

// decode parses data as one document and decodes its root element into
// v, as encoding/xml's Unmarshal would.
func decode[T any](data []byte, v *T) error {
	d := decoder{data: data}
	return try(func() { decodeRoot(&d, v, d.root()) })
}

// decodeRoot decodes the root element, whose name d.root returned, into v.
func decodeRoot[T any](d *decoder, v *T, name []byte) {
	p, err := planFor(reflect.TypeFor[T]())
	if err != nil {
		panic(decodeError{err})
	}
	d.element(p, reflect.ValueOf(v).Elem(), name)
}

// element decodes the element whose start-tag name was just read into
// v: attributes and children into p's fields, character data into the
// chardata field. p is nil for a scalar v, which takes the character
// data. Attributes and children without a field are checked and dropped.
func (d *decoder) element(p *plan, v reflect.Value, name []byte) {
	prefix, local := splitName(name)
	var ns []byte // the root's xmlns binding for its prefix
	mark := len(d.buf)
	for an, av, ok := d.attr(); ok; an, av, ok = d.attr() {
		if p != nil {
			apfx, alocal := splitName(an)
			if p.name >= 0 && (string(apfx) == "xmlns" && string(alocal) == string(prefix) || prefix == nil && string(an) == "xmlns") {
				ns = append([]byte{}, av...)
			}
			if f, ok := p.attrs[string(alocal)]; ok {
				setScalar(v.Field(f.index), av)
			}
		}
		d.buf = d.buf[:mark]
	}
	text := v
	if p != nil {
		if text = (reflect.Value{}); p.text >= 0 {
			text = v.Field(p.text)
		}
		if p.name >= 0 {
			setName(p, v.Field(p.name), prefix, local, ns)
		}
	}
	var cd []byte
	if !d.empty {
		keep := &cd
		if !text.IsValid() {
			keep = nil
		}
		d.content(p, v, name, keep)
	}
	if text.IsValid() {
		setScalar(text, cd)
	}
	d.buf = d.buf[:mark]
}

// setName checks the root element's name against the XMLName tag and
// stores it with the name space encoding/xml gives it: ns is the root's
// own xmlns binding for its prefix, nil if none.
func setName(p *plan, v reflect.Value, prefix, local, ns []byte) {
	if p.root != "" && string(local) != p.root {
		panic(decodeError{xml.UnmarshalError("expected element type <" + p.root + "> but have <" + string(local) + ">")})
	}
	n := xml.Name{Local: p.root}
	if n.Local != string(local) {
		n.Local = string(local)
	}
	switch {
	case string(prefix) == "xmlns":
		n.Space = "xmlns"
	case prefix == nil && n.Local == "xmlns":
	case string(prefix) == "xml":
		n.Space = "http://www.w3.org/XML/1998/namespace"
	case ns != nil:
		n.Space = string(ns)
	default:
		n.Space = string(prefix)
	}
	*v.Addr().Interface().(*xml.Name) = n
}

// content reads an element's content through its end tag, collecting
// its character data into cd unless cd is nil.
func (d *decoder) content(p *plan, v reflect.Value, name []byte, cd *[]byte) {
	for {
		switch d.next(cd) {
		case tokEOF:
			d.fail(len(d.data), "unexpected EOF")
		case tokEnd:
			d.closes(name, d.name)
			return
		}
		var f field
		ok := p != nil
		if ok {
			f, ok = p.elems[string(localName(d.name))]
		}
		if !ok {
			d.skip()
			continue
		}
		fv := v.Field(f.index)
		switch fv.Kind() {
		case reflect.Pointer:
			if fv.IsNil() {
				fv.Set(reflect.New(fv.Type().Elem()))
			}
			fv = fv.Elem()
		case reflect.Slice:
			n := fv.Len()
			fv.Grow(1)
			fv.SetLen(n + 1)
			fv = fv.Index(n)
		}
		d.element(f.plan, fv, d.name)
	}
}

// setScalar stores text into a string or integer as encoding/xml does:
// empty text is 0, other text must parse once trimmed.
func setScalar(v reflect.Value, text []byte) {
	var err error
	switch k := v.Kind(); {
	case k == reflect.String:
		v.SetString(string(text))
	case len(text) == 0:
		v.SetZero()
	case k <= reflect.Int64:
		var i int64
		i, err = strconv.ParseInt(string(bytes.TrimSpace(text)), 10, v.Type().Bits())
		v.SetInt(i)
	default:
		var u uint64
		u, err = strconv.ParseUint(string(bytes.TrimSpace(text)), 10, v.Type().Bits())
		v.SetUint(u)
	}
	if err != nil {
		panic(decodeError{err})
	}
}

// skip checks and drops the element whose start-tag name was just read.
func (d *decoder) skip() {
	mark, depth := len(d.buf), len(d.open)
tag:
	for {
		for _, _, ok := d.attr(); ok; _, _, ok = d.attr() {
			d.buf = d.buf[:mark]
		}
		if !d.empty {
			d.open = append(d.open, d.name)
		}
		for len(d.open) > depth {
			switch d.next(nil) {
			case tokStart:
				continue tag
			case tokEOF:
				d.fail(len(d.data), "unexpected EOF")
			}
			d.closes(d.open[len(d.open)-1], d.name)
			d.open = d.open[:len(d.open)-1]
		}
		return
	}
}
