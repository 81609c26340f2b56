// Package lint is a from-scratch, stdlib-only static-analysis framework
// enforcing the contracts the reproduction's headline numbers rest on:
// seeded determinism (all randomness through internal/rng), the PR-3
// failure model (library code returns errors; panics only where
// documented provably-infallible), diffcheck's float-comparison
// discipline, copy safety of lock-holding types, and the test-only
// status of the reference twins and the fault injector.
//
// The framework deliberately avoids golang.org/x/tools: packages are
// discovered by walking the module tree, parsed with go/parser, and
// type-checked with go/types using the stdlib "source" importer
// (importer.ForCompiler), so `go.mod` stays dependency-free. Rules run
// over typed ASTs and report Diagnostics; findings are suppressed only
// by an explicit annotation
//
//	//fivealarms:allow(<rule>) <one-line reason>
//
// on the flagged line, alone on the line above it, or in the doc
// comment of the enclosing top-level declaration. The reason is
// mandatory; unknown rule names and bare suppressions are themselves
// findings. See DESIGN.md §6 "Static-analysis conventions".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message. The CLI renders it as
// "file:line:col: [rule] message".
type Diagnostic struct {
	Pos     token.Position `json:"pos"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Rule is one registered invariant check. Run inspects a single
// type-checked package through the Pass and reports findings with
// Pass.Reportf.
type Rule struct {
	Name string // lowercase identifier, used in allow annotations
	Doc  string // one-line summary for -rules output
	Run  func(*Pass)
}

// Pass hands a rule one type-checked package. Files holds only
// non-test sources (the loader skips _test.go; test files are exempt
// from every rule by construction). In carries the package's shared
// preorder inspector: rules filter its single walk instead of
// re-traversing the AST independently.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path the package was loaded as
	Dir   string // package directory (for sibling artifacts like api.lock)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	In    *Inspector

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Rules returns the full registered suite in reporting order.
func Rules() []Rule {
	return []Rule{
		ruleSeededRand(),
		ruleFloatEq(),
		ruleNakedPanic(),
		ruleCtxFlow(),
		ruleNoCopyLock(),
		ruleTestOnlyImport(),
		ruleMapOrder(),
		ruleAPILock(),
		ruleGoroLeak(),
		ruleErrFlow(),
	}
}

// RuleNames returns the set of valid rule names, used by the
// suppression parser to reject unknown annotations.
func RuleNames() map[string]bool {
	names := make(map[string]bool)
	for _, r := range Rules() {
		names[r.Name] = true
	}
	return names
}

// Check runs the given rules over one loaded package and returns the
// surviving diagnostics: findings without a matching allow annotation,
// plus any malformed-suppression findings (rule "suppression", never
// suppressible). Results are sorted by (file, line, col, rule) and
// deduplicated, so overlapping rules reporting the same fact at the
// same position surface it once and the order is byte-deterministic.
func Check(pkg *Package, rules []Rule) []Diagnostic {
	pass := &Pass{
		Fset:  pkg.Fset,
		Path:  pkg.Path,
		Dir:   pkg.Dir,
		Files: pkg.Files,
		Pkg:   pkg.Pkg,
		Info:  pkg.Info,
		In:    newInspector(pkg.Files),
	}
	for _, r := range rules {
		r.Run(pass)
	}
	allows, bad := parseAllows(pkg.Fset, pkg.Files, RuleNames())
	var out []Diagnostic
	for _, d := range pass.diags {
		if !allows.covers(d) {
			out = append(out, d)
		}
	}
	out = append(out, bad...)
	return SortDiagnostics(out)
}

// SortDiagnostics orders diagnostics by (file, line, col, rule,
// message) and drops exact duplicates, in place. Both the per-package
// results of Check and the cross-package aggregate the CLI prints go
// through it, so `-json` (and SARIF) output is byte-deterministic
// regardless of load order or rule overlap.
func SortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
