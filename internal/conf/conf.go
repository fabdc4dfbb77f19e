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
// key, each bound to the variable Parse stores the value in.
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
	set  func(text string) error
}

// Lines records, for each key a document set, the line that set it.
type Lines map[string]int

// Errorf reports a bad value of key, led by the key's line when a
// document set it (a nil Lines knows no lines).
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
			return at, fmt.Errorf("config line %d: %v", at[name], err)
		}
	}
	return at, nil
}

// cutString splits s after the quoted string it starts with.
func cutString(s string) (str, rest string, ok bool) {
	str, rest, ok = strings.Cut(strings.TrimPrefix(s, `"`), `"`)
	return str, rest, ok && s[0] == '"' && !strings.Contains(str, "\n")
}

// row builds a scalar Key: parse reads the bare text as a T, which must
// then lie in bounds ({min} or {min, max}, inclusive) when a row has them.
func row[T string | int | uint64 | float64](name, want string, dst *T, parse func(string) (T, bool), bounds []T) Key {
	return Key{Name: name, set: func(text string) error {
		v, ok := parse(text)
		if !ok {
			return fmt.Errorf("expected %s, got %q", want, text)
		}
		var zero T
		switch { // written as !(in range) so that NaN is out of every range
		case len(bounds) == 2 && !(v >= bounds[0] && v <= bounds[1]):
			return fmt.Errorf("%s %v outside [%v, %v]", name, v, bounds[0], bounds[1])
		case len(bounds) == 1 && !(v >= bounds[0]) && bounds[0] == zero:
			return fmt.Errorf("%s must be non-negative", name)
		case len(bounds) == 1 && !(v >= bounds[0]):
			return fmt.Errorf("%s must be >= %v", name, bounds[0])
		}
		*dst = v
		return nil
	}}
}

// String is a row holding a double-quoted string.
func String(name string, dst *string) Key {
	parse := func(s string) (string, bool) { str, rest, ok := cutString(s); return str, ok && rest == "" }
	return row(name, "a quoted string", dst, parse, nil)
}

// Int is a row holding an integer, optionally bounded: min, or min and max.
func Int(name string, dst *int, bounds ...int) Key {
	parse := func(s string) (int, bool) { n, err := strconv.Atoi(s); return n, err == nil }
	return row(name, "an integer", dst, parse, bounds)
}

// Uint is a row holding a non-negative integer.
func Uint(name string, dst *uint64) Key {
	parse := func(s string) (uint64, bool) { n, err := strconv.ParseUint(s, 10, 64); return n, err == nil }
	return row(name, "a non-negative integer", dst, parse, nil)
}

// Float is a row holding a number, optionally bounded like Int.
func Float(name string, dst *float64, bounds ...float64) Key {
	parse := func(s string) (float64, bool) { f, err := strconv.ParseFloat(s, 64); return f, err == nil }
	return row(name, "a number", dst, parse, bounds)
}

// Bool is a row holding a boolean in any of the dialect's spellings.
func Bool(name string, dst *bool) Key {
	return Key{Name: name, set: func(text string) (err error) {
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
	return Key{Name: name, set: func(text string) error {
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
