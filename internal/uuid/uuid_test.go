package uuid

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIsV4AndUnique(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 1000; i++ {
		u := New()
		if u.IsNil() {
			t.Fatal("generated nil uuid")
		}
		if u[6]>>4 != 4 {
			t.Fatalf("version nibble %x", u[6]>>4)
		}
		if u[8]&0xc0 != 0x80 {
			t.Fatalf("variant bits %x", u[8])
		}
		if seen[u] {
			t.Fatal("duplicate uuid")
		}
		seen[u] = true
	}
}

func TestFromNameDeterministic(t *testing.T) {
	a := FromName("domain-1")
	b := FromName("domain-1")
	c := FromName("domain-2")
	if a != b {
		t.Fatal("FromName not deterministic")
	}
	if a == c {
		t.Fatal("distinct names collided")
	}
}

func TestParseForms(t *testing.T) {
	u := New()
	s := u.String()
	for _, form := range []string{s, "{" + s + "}", strings.ReplaceAll(s, "-", "")} {
		got, err := Parse(form)
		if err != nil {
			t.Fatalf("Parse(%q): %v", form, err)
		}
		if got != u {
			t.Fatalf("Parse(%q) = %v, want %v", form, got, u)
		}
	}
	if got, err := Parse(strings.ToUpper(s)); err != nil || got != u {
		t.Fatalf("upper-case parse: %v %v", got, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"short",
		"zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz",
		"12345678-1234-1234-1234-12345678901", // 35 chars
		"12345678x1234-1234-1234-123456789012",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

func TestParseErrorMessages(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"short", `uuid: invalid length in "short"`},
		{"12345678-1234-1234-1234-12345678901", `uuid: invalid length in "12345678-1234-1234-1234-12345678901"`},
		{"12345678x1234-1234-1234-123456789012", `uuid: invalid length in "12345678x1234-1234-1234-123456789012"`},
		{"1234567-81234-1234-1234-123456789012", `uuid: misplaced hyphen in "1234567-81234-1234-1234-123456789012"`},
		{"12345678-12341234-1234-123456789012", `uuid: invalid format "12345678-12341234-1234-123456789012"`},
		{"{zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz}", `uuid: "zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz": encoding/hex: invalid byte: U+007A 'z'`},
		{"0123456789abcdef0123456789abcdeG", `uuid: "0123456789abcdef0123456789abcdeG": encoding/hex: invalid byte: U+0047 'G'`},
	} {
		if _, err := Parse(tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %s", tc.in, err, tc.want)
		}
	}
}

// TestParseAllocs pins that a successful parse decodes in place: the
// define path parses every domain's UUID up to twice.
func TestParseAllocs(t *testing.T) {
	s := New().String()
	for _, form := range []string{s, "{" + s + "}", strings.ReplaceAll(s, "-", ""), strings.ToUpper(s)} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Parse(form); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Parse(%q) allocates %v times per call, want 0", form, n)
		}
	}
}

func TestStringFormat(t *testing.T) {
	u := UUID{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	want := "00112233-4455-6677-8899-aabbccddeeff"
	if u.String() != want {
		t.Fatalf("String()=%q want %q", u.String(), want)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		u := UUID(raw)
		got, err := Parse(u.String())
		return err == nil && got == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
