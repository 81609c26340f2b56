package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fivealarms/internal/lint"
)

// capture runs fn with stdout and stderr redirected to temp files and
// returns what was written.
func capture(t *testing.T, fn func(stdout, stderr *os.File)) (string, string) {
	t.Helper()
	mk := func(name string) *os.File {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	so, se := mk("stdout"), mk("stderr")
	defer so.Close()
	defer se.Close()
	fn(so, se)
	read := func(f *os.File) string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return read(so), read(se)
}

func TestRulesFlagListsSuite(t *testing.T) {
	var code int
	stdout, _ := capture(t, func(so, se *os.File) { code = run([]string{"-rules"}, so, se) })
	if code != 0 {
		t.Fatalf("-rules exit = %d, want 0", code)
	}
	for _, r := range lint.Rules() {
		if !strings.Contains(stdout, r.Name) {
			t.Errorf("-rules output is missing %q:\n%s", r.Name, stdout)
		}
	}
}

func TestJSONOutputOnCleanPackage(t *testing.T) {
	var code int
	stdout, stderr := capture(t, func(so, se *os.File) {
		code = run([]string{"-json", "../../internal/rng"}, so, se)
	})
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostics array: %v\n%s", err, stdout)
	}
	if len(diags) != 0 {
		t.Errorf("internal/rng must be lint-clean, got %v", diags)
	}
}

func TestUnknownPatternFails(t *testing.T) {
	var code int
	_, stderr := capture(t, func(so, se *os.File) {
		code = run([]string{"./no/such/dir"}, so, se)
	})
	if code != 2 {
		t.Fatalf("exit = %d, want 2 for a pattern matching nothing", code)
	}
	if !strings.Contains(stderr, "matches no packages") {
		t.Errorf("stderr should name the failure: %s", stderr)
	}
}

func TestSARIFOutputOnCleanPackage(t *testing.T) {
	var code int
	stdout, stderr := capture(t, func(so, se *os.File) {
		code = run([]string{"-sarif", "../../internal/rng"}, so, se)
	})
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-sarif output is not JSON: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Errorf("version %q with %d runs, want 2.1.0 and one run", doc.Version, len(doc.Runs))
	}
	if len(doc.Runs) == 1 && doc.Runs[0].Results == nil {
		t.Errorf("clean run must carry an empty results array, not null")
	}
}

func TestDebtReportsLiveSuppressions(t *testing.T) {
	var code int
	stdout, stderr := capture(t, func(so, se *os.File) {
		code = run([]string{"-debt", "../../internal/coverage"}, so, se)
	})
	if code != 0 {
		t.Fatalf("-debt exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "[errflow]") || !strings.Contains(stdout, "live suppressions") {
		t.Errorf("-debt output missing the coverage errflow waiver:\n%s", stdout)
	}
}

// TestWriteAPILockIsStable runs the regeneration path against the
// committed lockfile: on an unchanged wire contract it must be a
// byte-level no-op, which is exactly what CI's drift check relies on.
func TestWriteAPILockIsStable(t *testing.T) {
	lockPath := "../../internal/serve/api/api.lock"
	before, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatalf("the lockfile must be committed: %v", err)
	}
	var code int
	stdout, stderr := capture(t, func(so, se *os.File) {
		code = run([]string{"-write-apilock"}, so, se)
	})
	if code != 0 {
		t.Fatalf("-write-apilock exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "wrote") {
		t.Errorf("-write-apilock should confirm the write: %s", stdout)
	}
	after, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("regeneration on an unchanged contract rewrote the lockfile")
	}
}

func TestSubtreePattern(t *testing.T) {
	var code int
	stdout, stderr := capture(t, func(so, se *os.File) {
		code = run([]string{"../../internal/refimpl/..."}, so, se)
	})
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s, stdout: %s)", code, stderr, stdout)
	}
}
