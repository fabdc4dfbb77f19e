package typedparams

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndGet(t *testing.T) {
	l := NewList()
	if err := l.AddInt("i", -3); err != nil {
		t.Fatal(err)
	}
	if err := l.AddUInt("u", 7); err != nil {
		t.Fatal(err)
	}
	if err := l.AddLLong("l", -1<<40); err != nil {
		t.Fatal(err)
	}
	if err := l.AddULLong("ul", 1<<50); err != nil {
		t.Fatal(err)
	}
	if err := l.AddDouble("d", 2.5); err != nil {
		t.Fatal(err)
	}
	if err := l.AddBoolean("b", true); err != nil {
		t.Fatal(err)
	}
	if err := l.AddString("s", "hi"); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 7 {
		t.Fatalf("len=%d", l.Len())
	}
	if v, err := l.GetUInt("u"); err != nil || v != 7 {
		t.Fatalf("GetUInt: %v %v", v, err)
	}
	if v, err := l.GetULLong("ul"); err != nil || v != 1<<50 {
		t.Fatalf("GetULLong: %v %v", v, err)
	}
	if v, err := l.GetString("s"); err != nil || v != "hi" {
		t.Fatalf("GetString: %v %v", v, err)
	}
	if v, err := l.GetBoolean("b"); err != nil || !v {
		t.Fatalf("GetBoolean: %v %v", v, err)
	}
	if p, ok := l.Get("d"); !ok || p.D != 2.5 || p.Kind != Double {
		t.Fatalf("Get(d): %+v %v", p, ok)
	}
}

func TestDuplicateRejected(t *testing.T) {
	l := NewList()
	if err := l.AddUInt("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.AddInt("x", 2); err == nil {
		t.Fatal("duplicate field accepted")
	}
	if l.Len() != 1 {
		t.Fatalf("failed add mutated list: %d", l.Len())
	}
}

func TestFieldValidation(t *testing.T) {
	l := NewList()
	for _, bad := range []string{"", "has space", "has=eq", "a\tb", strings.Repeat("x", MaxFieldLength+1)} {
		if err := l.AddUInt(bad, 1); err == nil {
			t.Errorf("field %q accepted", bad)
		}
	}
	if err := l.AddUInt(strings.Repeat("x", MaxFieldLength), 1); err != nil {
		t.Errorf("max-length field rejected: %v", err)
	}
}

func TestKindMismatch(t *testing.T) {
	l := NewList()
	if err := l.AddInt("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.GetUInt("x"); err == nil {
		t.Fatal("kind mismatch not detected")
	}
	if _, err := l.GetString("x"); err == nil {
		t.Fatal("kind mismatch not detected")
	}
	if _, err := l.GetUInt("missing"); err == nil {
		t.Fatal("missing field not detected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := NewList()
	l.AddUInt("a", 1) //nolint:errcheck
	c := l.Clone()
	c.AddUInt("b", 2) //nolint:errcheck
	if l.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", l.Len(), c.Len())
	}
	if !c.Has("a") {
		t.Fatal("clone lost original entry")
	}
}

func TestStringRendering(t *testing.T) {
	l := NewList()
	l.AddUInt("max", 10)     //nolint:errcheck
	l.AddBoolean("ro", true) //nolint:errcheck
	l.AddDouble("f", 0.5)    //nolint:errcheck
	got := l.String()
	want := "max=10 ro=yes f=0.5"
	if got != want {
		t.Fatalf("String()=%q want %q", got, want)
	}
}

func TestFieldsSorted(t *testing.T) {
	l := NewList()
	l.AddUInt("zeta", 1)  //nolint:errcheck
	l.AddUInt("alpha", 1) //nolint:errcheck
	got := l.Fields()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Fields()=%v", got)
	}
}

func TestKindNames(t *testing.T) {
	if Int.String() != "int" || String.String() != "string" {
		t.Fatal("kind names wrong")
	}
	if Kind(0).Valid() || Kind(8).Valid() {
		t.Fatal("invalid kinds accepted")
	}
	if got := Kind(42).String(); got != "kind(42)" {
		t.Fatalf("unknown kind rendered %q", got)
	}
}

func TestQuickGetReturnsWhatAddStored(t *testing.T) {
	f := func(u uint32, s string, b bool) bool {
		if strings.ContainsAny(s, " \t\n=") {
			s = "sanitized"
		}
		l := NewList()
		if l.AddUInt("u", u) != nil || l.AddString("s", s) != nil || l.AddBoolean("b", b) != nil {
			return false
		}
		gu, err1 := l.GetUInt("u")
		gs, err2 := l.GetString("s")
		gb, err3 := l.GetBoolean("b")
		return err1 == nil && err2 == nil && err3 == nil && gu == u && gs == s && gb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInsertionOrderPreserved(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%20) + 1
		l := NewList()
		for i := 0; i < count; i++ {
			if l.AddInt(fieldName(i), int32(i)) != nil {
				return false
			}
		}
		ps := l.Params()
		if len(ps) != count {
			return false
		}
		for i, p := range ps {
			if p.Field != fieldName(i) || p.I != int32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fieldName(i int) string {
	return "f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}
