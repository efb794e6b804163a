package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestPerPackage aggregates a hand-written profile: two packages, one
// block that a second test binary repeats (hit in only one of them), and
// one package with no statements at all, which reports nothing.
func TestPerPackage(t *testing.T) {
	profile := `mode: atomic
repro/internal/a/x.go:1.1,3.2 4 1
repro/internal/a/x.go:5.1,7.2 2 0
repro/internal/a/y.go:1.1,2.2 4 0
repro/internal/b/z.go:1.1,2.2 3 0
repro/internal/b/z.go:4.1,6.2 1 5

repro/internal/a/x.go:5.1,7.2 2 3
repro/internal/a/y.go:1.1,2.2 4 0
repro/internal/empty/e.go:1.1,1.2 0 0
`
	path := filepath.Join(t.TempDir(), "cover.out")
	if err := os.WriteFile(path, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := perPackage(path)
	if err != nil {
		t.Fatal(err)
	}
	// a: x.go's blocks (4+2 statements) are hit, the second only in the
	// repeat; y.go's 4 never are, and its repeat must not count twice.
	want := map[string]float64{
		"repro/internal/a": 100 * 6.0 / 10,
		"repro/internal/b": 100 * 1.0 / 4,
	}
	if len(got) != len(want) {
		t.Fatalf("perPackage = %v, want %v", got, want)
	}
	for pkg, w := range want {
		if math.Abs(got[pkg]-w) > 1e-9 {
			t.Errorf("%s: %.3f%%, want %.3f%%", pkg, got[pkg], w)
		}
	}
}

func TestPerPackageRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{
		"repro/internal/a/x.go:1.1,3.2",
		"repro/internal/a/x.go:1.1,3.2 four 1",
	} {
		path := filepath.Join(t.TempDir(), "cover.out")
		if err := os.WriteFile(path, []byte("mode: set\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := perPackage(path); err == nil {
			t.Errorf("%q: perPackage = %v, want an error", line, got)
		}
	}
	if _, err := perPackage(filepath.Join(t.TempDir(), "missing.out")); err == nil {
		t.Error("a missing profile was read without error")
	}
}

func TestFloorListSet(t *testing.T) {
	f := floorList{}
	for _, s := range []string{"repro/internal/obs=70", "repro/internal/node=62.5", "repro/internal/obs=75"} {
		if err := f.Set(s); err != nil {
			t.Fatalf("Set(%q): %v", s, err)
		}
	}
	if f["repro/internal/obs"] != 75 || f["repro/internal/node"] != 62.5 || len(f) != 2 {
		t.Errorf("floors = %v, want obs=75 (the later flag wins) and node=62.5", f)
	}
	for _, bad := range []string{"repro/internal/obs", "repro/internal/obs=", "repro/internal/obs=seventy", ""} {
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted a value that is not pkg=percent", bad)
		}
	}
	if len(f) != 2 {
		t.Errorf("a rejected flag changed the floors: %v", f)
	}
}
