package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Package is one type-checked package variant.
type Package struct {
	// PkgPath is the import path the variant was loaded under. A
	// test-augmented variant shares its path with the plain variant.
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Standard marks GOROOT packages (never analyzed, only imported).
	Standard bool
	// Test marks test-augmented and external-test (_test) variants.
	Test bool
	// testFiles holds the absolute filenames of _test.go files in this
	// variant.
	testFiles map[string]bool
}

// TestFile reports whether pos lies in a _test.go file of the package.
func (p *Package) TestFile(fset *token.FileSet, pos token.Pos) bool {
	return p.testFiles[fset.Position(pos).Filename]
}

// Program is a loaded, fully type-checked program: the analysis targets
// plus the whole-program annotation table.
type Program struct {
	Fset *token.FileSet
	// Targets are the packages analyzers run over: the test-augmented
	// variant of every matched module package (plain when it has no test
	// files), followed by external _test packages.
	Targets []*Package
	// Annotations is the program-wide //dynlint:* table, scanned from
	// every module package variant.
	Annotations *Annotations
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	// TestGoFiles are _test.go files in the package itself;
	// XTestGoFiles form the external <pkg>_test package.
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

// Loader loads and type-checks packages through `go list` plus go/parser
// and go/types — a dependency-free stand-in for go/packages that works
// offline. One Loader owns one token.FileSet and memoizes every package
// it checks, so stdlib dependencies are type-checked at most once per
// Loader (with function bodies skipped — only their exported shape is
// needed to analyze module code).
type Loader struct {
	// Dir is the directory go list runs in (the module root).
	Dir  string
	Fset *token.FileSet

	entries  map[string]*listPkg
	plain    map[string]*Package // memoized non-test variants by import path
	checking map[string]bool     // import cycle guard
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:      dir,
		Fset:     token.NewFileSet(),
		entries:  make(map[string]*listPkg),
		plain:    make(map[string]*Package),
		checking: make(map[string]bool),
	}
}

// goList runs `go list -e -json -deps` with the given extra arguments and
// folds the resulting package entries into the loader's table.
func (l *Loader) goList(args ...string) error {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-deps"}, args...)...)
	cmd.Dir = l.Dir
	// CGO off: keeps every listed file pure Go, so go/types can check
	// everything from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	dec := json.NewDecoder(out)
	for {
		var e listPkg
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list: decoding output: %v", err)
		}
		if strings.HasSuffix(e.ImportPath, ".test") {
			continue // synthesized test-main packages
		}
		if e.ForTest != "" {
			// A recompiled test variant ("p [q.test]"). The loader builds
			// its own variants, but when a narrow pattern lists a package
			// ONLY through the test closure (e.g. a test-import of the
			// named package), this is the one entry carrying its file
			// list — adopt it as the plain entry. Only intermediate
			// variants qualify: the tested package's own variant (ForTest
			// == itself) merges _test.go files into GoFiles and must not
			// shadow the plain entry, and the external _test package is
			// built by Load against that variant, since it may use
			// identifiers the tested package declares in its _test.go
			// files.
			ip := trimTestVariant(e.ImportPath)
			if ip == e.ForTest || ip == e.ForTest+"_test" {
				continue
			}
			if _, ok := l.entries[ip]; !ok {
				ec := e
				ec.ImportPath = ip
				ec.Imports = trimTestVariants(ec.Imports)
				l.entries[ip] = &ec
			}
			continue
		}
		if _, ok := l.entries[e.ImportPath]; !ok {
			ec := e
			l.entries[e.ImportPath] = &ec
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return nil
}

// Load lists patterns (with their full dependency and test-dependency
// closure), type-checks everything, scans annotations and returns the
// program. withTests selects test-augmented variants and external _test
// packages as targets.
func (l *Loader) Load(patterns []string, withTests bool) (*Program, error) {
	args := []string{}
	if withTests {
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	if err := l.goList(args...); err != nil {
		return nil, err
	}

	var targets []*listPkg
	for _, e := range l.entries {
		if !e.Standard && !e.DepOnly {
			if e.Error != nil {
				return nil, fmt.Errorf("go list: %s: %s", e.ImportPath, e.Error.Err)
			}
			targets = append(targets, e)
		}
	}
	// Deterministic analysis order.
	slices.SortFunc(targets, func(a, b *listPkg) int {
		return strings.Compare(a.ImportPath, b.ImportPath)
	})

	prog := &Program{Fset: l.Fset, Annotations: NewAnnotations()}
	scan := func(p *Package) {
		prog.Annotations.Scan(p.Files, p.Info)
	}

	// Plain variants of all module packages first: they are both import
	// targets and annotation sources.
	for _, e := range l.entries {
		if e.Standard {
			continue
		}
		p, err := l.Import(e.ImportPath)
		if err != nil {
			return nil, err
		}
		scan(p)
	}

	for _, e := range targets {
		tgt := l.plain[e.ImportPath]
		if withTests && len(e.TestGoFiles) > 0 {
			aug, err := l.check(e, append(append([]string{}, e.GoFiles...), e.TestGoFiles...), e.ImportPath, l.Import)
			if err != nil {
				return nil, err
			}
			aug.Test = true
			scan(aug)
			tgt = aug
		}
		prog.Targets = append(prog.Targets, tgt)
		if withTests && len(e.XTestGoFiles) > 0 {
			// The external test package sees the tested package's
			// augmented variant, so identifiers declared in its in-package
			// test files resolve. Exactly like `go test`, every module
			// package between the two is re-type-checked against the
			// augmented variant, so named types stay identical along both
			// import paths.
			rev := l.importersOf(e.ImportPath)
			cache := make(map[string]*Package)
			var impFor func(path string) (*Package, error)
			impFor = func(path string) (*Package, error) {
				if path == e.ImportPath {
					return tgt, nil
				}
				if p, ok := cache[path]; ok {
					return p, nil
				}
				if !rev[path] {
					return l.Import(path)
				}
				ee := l.entries[path]
				p, err := l.check(ee, ee.GoFiles, path, impFor)
				if err != nil {
					return nil, err
				}
				cache[path] = p
				scan(p)
				return p, nil
			}
			xt, err := l.check(e, e.XTestGoFiles, e.ImportPath+"_test", impFor)
			if err != nil {
				return nil, err
			}
			xt.Test = true
			scan(xt)
			prog.Targets = append(prog.Targets, xt)
		}
	}
	return prog, nil
}

// Import returns the memoized plain variant of path, type-checking it
// (and, recursively, its imports) on first use.
func (l *Loader) Import(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{PkgPath: path, Types: types.Unsafe, Standard: true}, nil
	}
	if p, ok := l.plain[path]; ok {
		return p, nil
	}
	e, ok := l.entries[path]
	if !ok {
		// A package outside the already-listed closure (the fixture
		// harness imports stdlib on demand): list it now.
		if err := l.goList("--", path); err != nil {
			return nil, err
		}
		if e, ok = l.entries[path]; !ok {
			return nil, fmt.Errorf("load: cannot resolve import %q", path)
		}
	}
	if l.checking[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	p, err := l.check(e, e.GoFiles, path, l.Import)
	if err != nil {
		return nil, err
	}
	l.plain[path] = p
	return p, nil
}

// importersOf returns the set of module import paths that transitively
// import path (through regular imports).
func (l *Loader) importersOf(path string) map[string]bool {
	rev := make(map[string][]string)
	for _, e := range l.entries {
		if e.Standard {
			continue
		}
		for _, imp := range e.Imports {
			rev[imp] = append(rev[imp], e.ImportPath)
		}
	}
	seen := make(map[string]bool)
	queue := []string{path}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, importer := range rev[p] {
			if !seen[importer] {
				seen[importer] = true
				queue = append(queue, importer)
			}
		}
	}
	return seen
}

// check parses and type-checks one package variant from the given file
// names (relative to the entry's directory). imp resolves imports,
// letting test variants redirect paths to re-checked packages.
func (l *Loader) check(e *listPkg, names []string, asPath string, imp func(string) (*Package, error)) (*Package, error) {
	if e.Error != nil {
		return nil, fmt.Errorf("load: %s: %s", e.ImportPath, e.Error.Err)
	}
	p := &Package{PkgPath: asPath, Dir: e.Dir, Standard: e.Standard, testFiles: make(map[string]bool)}
	for _, name := range names {
		fn := filepath.Join(e.Dir, name)
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %s: %v", asPath, err)
		}
		p.Files = append(p.Files, f)
		if IsTestFilename(name) {
			p.testFiles[fn] = true
		}
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			ip, err := imp(path)
			if err != nil {
				return nil, err
			}
			return ip.Types, nil
		}),
		Error: func(err error) { errs = append(errs, err) },
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		// Stdlib packages are import targets only; skipping their bodies
		// keeps whole-program loading fast.
		IgnoreFuncBodies: e.Standard,
	}
	p.Types, _ = conf.Check(asPath, l.Fset, p.Files, p.Info)
	if len(errs) > 0 && !e.Standard {
		return nil, fmt.Errorf("load: %s: type errors: %v", asPath, errs[0])
	}
	return p, nil
}

// trimTestVariant strips the " [q.test]" suffix go list puts on
// recompiled test-variant import paths.
func trimTestVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

func trimTestVariants(paths []string) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = trimTestVariant(p)
	}
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
