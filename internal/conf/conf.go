// Package conf parses the one configuration dialect govirtd.conf,
// fleet.conf and client.conf share (libvirtd.conf's):
//
//	# a comment, on a line of its own
//	name = "a quoted string"
//	count = 42        bare int, uint or float
//	flag = on         0/1, on/off, yes/no, y/n, true/false, t/f, any case
//	list = ["a", "b,c",
//	        "d",]     split outside the quotes; may span lines, hold
//	                  comment lines and end in a comma
//
// There are no escapes, includes or expansions: a string holds neither '"'
// nor a newline. A file's settings are one []Key table, one typed row per
// key, each bound to the variable Parse stores the value in. A row marked
// Live is one a running program can also change (SetLive) and report
// (Value), in the same text.
package conf

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Key is one row of a file's key table.
type Key struct {
	Name string
	Live bool // settable on the running program, not only at start-up
	set  func(text string) error
	get  func() string
}

// Live marks k as a row the running program can change.
func Live(k Key) Key { k.Live = true; return k }

// Value writes the row's variable as a file would; storing that text
// back leaves the variable unchanged.
func (k Key) Value() string { return k.get() }

// Lines records, for each key a document set, the line that set it.
type Lines map[string]int

// Errorf reports a bad value of key, led by the key's line when a
// document set it (a nil Lines knows no lines): the shape of every
// complaint about a value, Parse's and SetLive's included.
func (l Lines) Errorf(key, format string, args ...any) error {
	where := ""
	if n := l[key]; n > 0 {
		where = fmt.Sprintf("config line %d: ", n)
	}
	return fmt.Errorf("%s%s: %s", where, key, fmt.Sprintf(format, args...))
}

// Parse stores every "key = value" line of text through its row of keys
// and returns where each was set. A key given twice keeps its last value;
// one with no row, of the wrong kind or out of bounds fails with its line.
func Parse(text string, keys []Key) (Lines, error) {
	at := Lines{}
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, found := strings.Cut(line, "=")
		if !found {
			return at, fmt.Errorf("config line %d: missing '='", i+1)
		}
		name, value = strings.TrimSpace(name), strings.TrimSpace(value)
		k := slices.IndexFunc(keys, func(k Key) bool { return k.Name == name })
		if k < 0 {
			return at, fmt.Errorf("config line %d: unknown key %q", i+1, name)
		}
		at[name] = i + 1
		// A list runs on to the first line that ends in ']': a string
		// cannot span lines, so that bracket is never inside one.
		if parts := []string{value}; strings.HasPrefix(value, "[") {
			for ; !strings.HasSuffix(line, "]") && i+1 < len(lines); i++ {
				if next := strings.TrimSpace(lines[i+1]); !strings.HasPrefix(next, "#") {
					parts, line = append(parts, next), next
				}
			}
			value = strings.Join(parts, "\n")
		}
		if err := keys[k].set(value); err != nil {
			return at, at.Errorf(name, "%v", err)
		}
	}
	return at, nil
}

// SetLive stores text through the live row named name, as Parse stores
// the line "name = text", and fails with Parse's message minus the line.
func SetLive(keys []Key, name, text string) error {
	k := slices.IndexFunc(keys, func(k Key) bool { return k.Name == name })
	switch {
	case k < 0:
		return fmt.Errorf("unknown key %q", name)
	case !keys[k].Live:
		return fmt.Errorf("%s: read at start-up only", name)
	}
	if err := keys[k].set(text); err != nil {
		return Lines(nil).Errorf(name, "%v", err)
	}
	return nil
}

// cutString splits s after the quoted string it starts with.
func cutString(s string) (str, rest string, ok bool) {
	str, rest, ok = strings.Cut(strings.TrimPrefix(s, `"`), `"`)
	return str, rest, ok && s[0] == '"' && !strings.Contains(str, "\n")
}

// row builds a scalar Key: parse reads the bare text as a T, which must
// then lie in bounds ({min} or {min, max}, inclusive) when a row has them;
// format writes a T back.
func row[T string | int | uint64 | float64](name, want string, dst *T, parse func(string) (T, bool), format func(T) string, bounds []T) Key {
	return Key{Name: name, get: func() string { return format(*dst) }, set: func(text string) error {
		v, ok := parse(text)
		if !ok {
			return fmt.Errorf("expected %s, got %q", want, text)
		}
		var zero T
		switch { // written as !(in range) so that NaN is out of every range
		case len(bounds) == 2 && !(v >= bounds[0] && v <= bounds[1]):
			return fmt.Errorf("%v outside [%v, %v]", v, bounds[0], bounds[1])
		case len(bounds) == 1 && !(v >= bounds[0]) && bounds[0] == zero:
			return fmt.Errorf("must be non-negative")
		case len(bounds) == 1 && !(v >= bounds[0]):
			return fmt.Errorf("must be >= %v", bounds[0])
		}
		*dst = v
		return nil
	}}
}

// quote writes s as the dialect's quoted string.
func quote(s string) string { return `"` + s + `"` }

// String is a row holding a double-quoted string.
func String(name string, dst *string) Key {
	parse := func(s string) (string, bool) { str, rest, ok := cutString(s); return str, ok && rest == "" }
	return row(name, "a quoted string", dst, parse, quote, nil)
}

// Int is a row holding an integer, optionally bounded: min, or min and max.
func Int(name string, dst *int, bounds ...int) Key {
	parse := func(s string) (int, bool) { n, err := strconv.Atoi(s); return n, err == nil }
	return row(name, "an integer", dst, parse, strconv.Itoa, bounds)
}

// Uint is a row holding a non-negative integer.
func Uint(name string, dst *uint64) Key {
	parse := func(s string) (uint64, bool) { n, err := strconv.ParseUint(s, 10, 64); return n, err == nil }
	format := func(n uint64) string { return strconv.FormatUint(n, 10) }
	return row(name, "a non-negative integer", dst, parse, format, nil)
}

// Float is a row holding a number, optionally bounded like Int.
func Float(name string, dst *float64, bounds ...float64) Key {
	parse := func(s string) (float64, bool) { f, err := strconv.ParseFloat(s, 64); return f, err == nil }
	format := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return row(name, "a number", dst, parse, format, bounds)
}

// Bool is a row holding a boolean in any of the dialect's spellings.
func Bool(name string, dst *bool) Key {
	return Key{Name: name, get: func() string { return strconv.FormatBool(*dst) }, set: func(text string) (err error) {
		switch s := strings.ToLower(text); s {
		case "on", "yes", "y":
			*dst = true
		case "off", "no", "n":
			*dst = false
		default:
			if *dst, err = strconv.ParseBool(s); err != nil {
				err = fmt.Errorf("expected a boolean, got %q", text)
			}
		}
		return err
	}}
}

// Strings is a row holding a list of quoted strings.
func Strings(name string, dst *[]string) Key {
	get := func() string {
		items := make([]string, len(*dst))
		for i, s := range *dst {
			items[i] = quote(s)
		}
		return "[" + strings.Join(items, ", ") + "]"
	}
	return Key{Name: name, get: get, set: func(text string) error {
		var items []string
		rest, ok := strings.CutPrefix(text, "[")
		for ok && strings.TrimSpace(rest) != "]" {
			var item string
			item, rest, ok = cutString(strings.TrimSpace(rest))
			items = append(items, item)
			if rest = strings.TrimSpace(rest); ok && rest != "]" {
				rest, ok = strings.CutPrefix(rest, ",")
			}
		}
		if !ok {
			return fmt.Errorf(`expected a ["...", "..."] list, got %q`, text)
		}
		*dst = items
		return nil
	}}
}
