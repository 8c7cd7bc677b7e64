package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check. Run inspects a single package via
// its Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the loaded FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ModulePath string

	directives *directiveIndex
	report     func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// inModule reports whether pkg (possibly nil, for Universe objects) is
// part of the module under analysis.
func (p *Pass) inModule(pkg *types.Package) bool {
	if pkg == nil || p.ModulePath == "" {
		return false
	}
	path := pkg.Path()
	return path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/")
}

// ---------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------

// Directive is one parsed //wbsim:<verb> suppression comment.
type Directive struct {
	Verb   string   // "partial", "nondet", "unguarded", "rawcounter"
	Args   []string // constant names inside parentheses, if any
	Reason string   // text after " -- "
	Pos    token.Pos
	used   bool
}

// knownVerbs maps each directive verb to the analyzer that consumes it.
var knownVerbs = map[string]string{
	"partial":    "exhaustive",
	"nondet":     "determinism",
	"unguarded":  "panicboundary",
	"rawcounter": "statsdiscipline",
	"uncloned":   "clonecomplete",
}

const directivePrefix = "wbsim:"

// directiveIndex holds every wbsim directive of a package, keyed by
// file and line, so analyzers can look suppressions up by position.
type directiveIndex struct {
	byLine map[string]map[int][]*Directive // filename -> line -> directives
	all    []*Directive
	errs   []Diagnostic // malformed directives
}

// parseDirectives scans every comment of the package's files.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: make(map[string]map[int][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				d, err := parseDirective(text)
				if err != nil {
					idx.errs = append(idx.errs, Diagnostic{
						Analyzer: "directives",
						Pos:      fset.Position(c.Pos()),
						Message:  err.Error(),
					})
					continue
				}
				d.Pos = c.Pos()
				pos := fset.Position(c.Pos())
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]*Directive)
					idx.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
				idx.all = append(idx.all, d)
			}
		}
	}
	return idx
}

// parseDirective parses "<verb>[(a, b)] -- reason".
func parseDirective(text string) (*Directive, error) {
	body, reason, hasReason := strings.Cut(text, " -- ")
	body = strings.TrimSpace(body)
	reason = strings.TrimSpace(reason)
	d := &Directive{Reason: reason}
	if open := strings.IndexByte(body, '('); open >= 0 {
		if !strings.HasSuffix(body, ")") {
			return nil, fmt.Errorf("malformed //wbsim: directive: unclosed argument list in %q", body)
		}
		for _, a := range strings.Split(body[open+1:len(body)-1], ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("malformed //wbsim: directive: empty argument in %q", body)
			}
			d.Args = append(d.Args, a)
		}
		d.Verb = body[:open]
	} else if fields := strings.Fields(body); len(fields) > 0 {
		// Only the first token is the verb; trailing prose without a
		// " -- " separator is not a justification.
		d.Verb = fields[0]
	}
	if _, ok := knownVerbs[d.Verb]; !ok {
		return nil, fmt.Errorf("unknown //wbsim: directive verb %q (known: partial, nondet, unguarded, rawcounter, uncloned)", d.Verb)
	}
	if !hasReason || reason == "" {
		return nil, fmt.Errorf("//wbsim:%s directive needs a justification: `//wbsim:%s -- <reason>`", d.Verb, d.Verb)
	}
	return d, nil
}

// directiveFor returns the directive with the given verb that applies
// to node n: on n's starting line, or on the line directly above it.
// The directive is marked used.
func (p *Pass) directiveFor(n ast.Node, verb string) *Directive {
	return p.directiveAtPos(n.Pos(), verb)
}

func (p *Pass) directiveAtPos(pos token.Pos, verb string) *Directive {
	position := p.Fset.Position(pos)
	lines := p.directives.byLine[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range lines[line] {
			if d.Verb == verb {
				d.used = true
				return d
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position. It also reports malformed directives
// and, once per package, directives that suppressed nothing.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx := parseDirectives(fset, pkg.Files)
		diags = append(diags, idx.errs...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ModulePath: pkg.Module,
				directives: idx,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		// A directive nothing consumed is stale: either the code it
		// excused was fixed, or the directive is on the wrong line. Only
		// judged when the consuming analyzer actually ran.
		for _, d := range idx.all {
			if !d.used && ran[knownVerbs[d.Verb]] {
				diags = append(diags, Diagnostic{
					Analyzer: knownVerbs[d.Verb],
					Pos:      fset.Position(d.Pos),
					Message: fmt.Sprintf(
						"stale //wbsim:%s directive: nothing here needs suppressing; delete it", d.Verb),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CloneCompleteAnalyzer,
		DeterminismAnalyzer,
		ExhaustiveAnalyzer,
		PanicBoundaryAnalyzer,
		StatsDisciplineAnalyzer,
	}
}
