package twoldag

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the functions and methods of internal/ packages
// that no non-test file calls yet, each with its reason: "seam" (a hook
// tests inject through) or "pending: ROADMAP item N" (the item that gives
// it a non-test caller). The list may only shrink: a name that gains a
// caller or is deleted must leave it.
var testOnlyAllowed = map[string]string{
	"analysis.MessageUpperBound": "pending: ROADMAP item 3",
	"analysis.MicroLoopBound":    "pending: ROADMAP item 3",
	"analysis.MinMessages":       "pending: ROADMAP item 3",
	"analysis.PathLengthBound":   "pending: ROADMAP item 3",
	"analysis.StorageBound":      "pending: ROADMAP item 3",
	"analysis.TotalBlocks":       "pending: ROADMAP item 3",
	"analysis.TrustStoreBound":   "pending: ROADMAP item 3",
	"dag.FromStores":             "pending: ROADMAP item 3",
	"dag.Graph.BlocksPerNode":    "pending: ROADMAP item 3",
	"dag.Graph.Children":         "pending: ROADMAP item 3",
	"dag.Graph.DescendantCount":  "pending: ROADMAP item 3",
	"dag.Graph.IsAcyclic":        "pending: ROADMAP item 3",
	"dag.Graph.Reachable":        "pending: ROADMAP item 3",
	"dag.Graph.VoucherReach":     "pending: ROADMAP item 3",
	"ledger.WithWALFile":         "seam",
	"sim.Sim.Stores":             "pending: ROADMAP item 2",
	"transport.Network.SetDrop":  "seam",
}

// TestInternalFuncsHaveNonTestCallers is the ratchet on code only tests
// reach: every top-level function and method declared in a non-test file
// of internal/ must be named by some identifier of a non-test .go file of
// the repository (benchmark/, cmd/, examples/, experiments/ and test/
// included), other than its own declaration, or be in testOnlyAllowed.
// A package-level function is named by a bare identifier in its own
// package or by pkg.Name where pkg is a file's import of its package; a
// method by any identifier of its name. Test-support packages
// internal/<pkg>/<pkg>test are neither scanned nor counted as callers.
func TestInternalFuncsHaveNonTestCallers(t *testing.T) {
	flagged := testOnlyFuncs(t)
	for _, name := range slices.Sorted(maps.Keys(flagged)) {
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("%s (%d lines) has no caller outside _test.go files: call it, delete it or move it next to its tests", name, flagged[name])
		}
	}
	reason := regexp.MustCompile(`^(seam|pending: ROADMAP item [0-9]+(\([a-z0-9]+\))?)$`)
	for _, name := range slices.Sorted(maps.Keys(testOnlyAllowed)) {
		if _, ok := flagged[name]; !ok {
			t.Errorf("%s is allowlisted but has a non-test caller now or is gone: drop it from testOnlyAllowed", name)
		}
		if !reason.MatchString(testOnlyAllowed[name]) {
			t.Errorf("%s: reason %q is neither \"seam\" nor \"pending: ROADMAP item N\"", name, testOnlyAllowed[name])
		}
	}
}

// TestInternalConfigFieldsAreSet is the ratchet on knobs nothing turns:
// every exported field of an exported struct type of internal/ whose
// name ends in Config, Options, Policy or Params must be set by a
// non-test .go file of the repository other than the one declaring it,
// as a composite-literal key or as the selector on an assignment's left
// side. Fields match by name, as methods do above. Types the root
// package re-exports by alias are public API that library users set, and
// are exempt. There is no allowlist: set the field or delete it.
func TestInternalConfigFieldsAreSet(t *testing.T) {
	for _, name := range unsetConfigFields(t) {
		t.Errorf("%s is set by no non-test file but its own: set it or delete it", name)
	}
}

// unsetConfigFields returns the fields TestInternalConfigFieldsAreSet
// flags, as "<dir under internal>.<Type>.<Field>", sorted.
func unsetConfigFields(t *testing.T) []string {
	t.Helper()
	type field struct{ typ, name, file string }
	var fields []field
	setIn := map[string][]string{} // field name -> files setting it
	aliased := map[string]bool{}   // "<dir under internal>.<Type>"
	configType := regexp.MustCompile(`(Config|Options|Policy|Params)$`)
	walkNonTestGo(t, func(_ *token.FileSet, path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		idir, internal := strings.CutPrefix(dir, "internal/")
		imports := internalImports(f)
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && dir == "." && ts.Assign.IsValid() {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						aliased[imports[x.Name]+"."+sel.Sel.Name] = true
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !internal || !ts.Name.IsExported() || !configType.MatchString(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							fields = append(fields, field{idir + "." + ts.Name.Name, name.Name, path})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							setIn[k.Name] = append(setIn[k.Name], path)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						setIn[sel.Sel.Name] = append(setIn[sel.Sel.Name], path)
					}
				}
			}
			return true
		})
	})
	var unset []string
	for _, fl := range fields {
		elsewhere := func(file string) bool { return file != fl.file }
		if !aliased[fl.typ] && !slices.ContainsFunc(setIn[fl.name], elsewhere) {
			unset = append(unset, fl.typ+"."+fl.name)
		}
	}
	slices.Sort(unset)
	return unset
}

// testOnlyFuncs returns the internal/ functions and methods no non-test
// identifier names, keyed "<dir under internal>.[<Recv>.]<Name>", with the
// line count of each body.
func testOnlyFuncs(t *testing.T) map[string]int {
	t.Helper()
	type decl struct {
		key, name string
		method    bool
		lines     int
	}
	var decls []decl
	// used holds every identifier a method may be named by; funcUsed the
	// "<dir under internal>.<Name>" of every package-level function named.
	used, funcUsed := map[string]bool{}, map[string]bool{}
	walkNonTestGo(t, func(fset *token.FileSet, path string, f *ast.File) {
		own := map[*ast.Ident]bool{}
		dir, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !internal || fn.Name.Name == "init" || fn.Body == nil {
				continue
			}
			key := dir + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name, fn.Recv != nil, lines})
		}
		imports := internalImports(f)
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcUsed[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if own[n] {
					break
				}
				used[n.Name] = true
				if internal && !sels[n] {
					funcUsed[dir+"."+n.Name] = true
				}
			}
			return true
		})
	})
	flagged := map[string]int{}
	for _, d := range decls {
		if (d.method && !used[d.name]) || (!d.method && !funcUsed[d.key]) {
			flagged[d.key] = d.lines
		}
	}
	return flagged
}

// walkNonTestGo parses every non-test .go file of the repository,
// benchmark/ included, and hands it to visit. Hidden dirs and the
// test-support packages internal/<pkg>/<pkg>test are skipped.
func walkNonTestGo(t *testing.T, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || isTestSupport(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// internalImports maps each import name of f to the imported package's
// dir under internal/.
func internalImports(f *ast.File) map[string]string {
	const internalPath = "github.com/twoldag/twoldag/internal/"
	imports := map[string]string{}
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		if idir, ok := strings.CutPrefix(ipath, internalPath); ok {
			name := filepath.Base(idir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = idir
		}
	}
	return imports
}

// isTestSupport reports whether dir is a test-support package
// internal/.../<pkg>/<pkg>test.
func isTestSupport(dir string) bool {
	dir = filepath.ToSlash(dir)
	parent, base := filepath.Base(filepath.Dir(dir)), filepath.Base(dir)
	return strings.HasPrefix(dir, "internal/") && base == parent+"test"
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
