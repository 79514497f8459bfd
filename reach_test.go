package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The production surface of this repository is what its binaries can
// reach: the main and init functions of cmd/*, examples/* and
// benchmark/. TestProductionSurface fails on any declaration under
// internal/, cmd/ or examples/ that no binary reaches, and on any import
// that breaks one of the architecture rules below. It applies the rule
// of golang.org/x/tools/cmd/deadcode conservatively:
//
//   - every init function, and every package-level var whose
//     initializer calls a function, of a package a binary links is a root;
//   - a method is kept when its receiver type is reachable and its name
//     is the name of an interface method anywhere in the program or the
//     packages it imports, because a dynamic call may reach it.
//
// The same test holds struct fields to two rules (see unusedFields):
// a field declared under internal/ that non-test code writes must also
// be read, and a field of an exported *Config, *Options or *Opts struct
// under internal/ must be set by non-test code.
//
// To fix an unreachable declaration, delete it (and the tests that only
// exercised it), move it into the _test.go file of the package whose
// tests use it, or, when it must stay, give it a line in keepUnreachable
// with the reason. To fix a write-only field, delete it with the code
// that computes it; to fix a config field nothing sets, turn it into a
// constant or set it where a binary builds the config. A field that
// must stay gets a line in keepFields with the reason.

// keepUnreachable lists the declarations allowed to be unreachable, each
// with the reason it stays. The check fails when an entry becomes
// reachable or no longer exists.
var keepUnreachable = map[string]string{
	"internal/mpp.Rank.RNG": "the per-rank stream of the seed parameter of mpp.Run/RunCtx, whose signature benchmark/ pins",
}

// keepFields lists the struct fields the field rules may not flag, each
// with the reason it stays. The check fails when an entry is no longer
// flagged or no longer exists.
var keepFields = map[string]string{
	"internal/ids.LaunchConfig.OnListen": "only TestReadyzLifecycle sets it: the one deterministic probe of the window before the instance is ready",
}

// importRules are the architecture rules: no package matching from may
// link (import directly or transitively) a package matching to.
var importRules = []importRule{
	{
		from: `^internal/conformance/ref$`, to: `^internal/(ids|exec|plan|mpp)$`,
		why: "the reference evaluator is only worth comparing against while it shares nothing with the engine behind the parser",
	},
	{
		from: `^cmd/(ids-server|ids-cli)$`, to: `^internal/conformance(/|$)`,
		why: "the conformance harness is test equipment: no served binary links it",
	},
	{
		from: `^internal/ids$`, to: `^internal/(cache|fam)$`,
		why: "the global cache and the fabric under it belong to the NCNPR workflow's docking artifacts, not to the query engine",
	},
}

func TestProductionSurface(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("reachable", func(t *testing.T) {
		dead, err := prog.unreachable(keepUnreachable)
		if err != nil {
			t.Error(err)
		}
		for _, d := range dead {
			t.Errorf("%s: unreachable from any binary", d)
		}
	})
	t.Run("imports", func(t *testing.T) {
		for _, v := range prog.violations(importRules) {
			t.Error(v)
		}
	})
	t.Run("fields", func(t *testing.T) {
		flagged, err := prog.unusedFields(keepFields)
		if err != nil {
			t.Error(err)
		}
		for _, f := range flagged {
			t.Error(f)
		}
	})
}

func TestReachabilityCheck(t *testing.T) {
	prog, err := loadProgram(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	// testdata/reach: cmd/app calls lib.Live and prints a lib.T, and the
	// initializer of lib.registry calls lib.register with lib.viaVar.
	// Nothing calls lib.Dead, lib.Kept or lib.T.Unused.
	const dead, kept, unused = "internal/lib/lib.go:8 internal/lib.Dead",
		"internal/lib/lib.go:11 internal/lib.Kept",
		"internal/lib/lib.go:28 internal/lib.T.Unused"
	for _, tc := range []struct {
		name     string
		keep     map[string]string
		wantDead []string
		wantErr  string
	}{
		{
			name:     "unreachable funcs and methods are flagged",
			wantDead: []string{dead, kept, unused},
		},
		{
			name:     "a keep-list entry is not flagged",
			keep:     map[string]string{"internal/lib.Kept": "reason"},
			wantDead: []string{dead, unused},
		},
		{
			name:     "a reachable keep-list entry fails",
			keep:     map[string]string{"internal/lib.Kept": "reason", "internal/lib.Live": "reason"},
			wantDead: []string{dead, unused},
			wantErr:  "keep-list entry internal/lib.Live is reachable",
		},
		{
			name:     "a missing keep-list entry fails",
			keep:     map[string]string{"internal/lib.Kept": "reason", "internal/lib.Gone": "reason"},
			wantDead: []string{dead, unused},
			wantErr:  "keep-list entry internal/lib.Gone does not exist",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := prog.unreachable(tc.keep)
			if (tc.wantErr == "") != (err == nil) || !strings.Contains(fmt.Sprint(err), tc.wantErr) {
				t.Errorf("err = %v, want %q", err, tc.wantErr)
			}
			if got, want := strings.Join(got, "\n"), strings.Join(tc.wantDead, "\n"); got != want {
				t.Errorf("unreachable:\n%s\nwant:\n%s", got, want)
			}
		})
	}
	if v := prog.violations([]importRule{{from: `^cmd/app$`, to: `^internal/lib$`}}); len(v) != 1 {
		t.Errorf("rule cmd/app -> internal/lib: violations %q, want one", v)
	}

	// internal/lib/fields.go: lib.UseFields writes every field of lib.S
	// and reads S.read, the promoted Inner.X and the generic box.v.
	// Nothing reads box.unread, only fields_test.go reads S.testRead, and
	// S.self is read only on the right of its own assignment; S.Tagged
	// is tagged, S.Inner embedded and S.count atomic. cmd/app sets
	// AppConfig.Set only.
	const written, testRead, self, unread, unset = "internal/lib/fields.go:7 internal/lib.S.written: written, never read",
		"internal/lib/fields.go:8 internal/lib.S.testRead: written, never read",
		"internal/lib/fields.go:13 internal/lib.S.self: written, never read",
		"internal/lib/fields.go:22 internal/lib.box.unread: written, never read",
		"internal/lib/fields.go:30 internal/lib.AppConfig.Unset: config field nothing sets"
	for _, tc := range []struct {
		name        string
		keep        map[string]string
		wantFlagged []string
		wantErr     string
	}{
		{
			name:        "write-only and never-set config fields are flagged",
			wantFlagged: []string{written, testRead, self, unread, unset},
		},
		{
			name:        "a keep-listed field is not flagged",
			keep:        map[string]string{"internal/lib.AppConfig.Unset": "reason"},
			wantFlagged: []string{written, testRead, self, unread},
		},
		{
			name:        "an unflagged keep-list entry fails",
			keep:        map[string]string{"internal/lib.S.read": "reason"},
			wantFlagged: []string{written, testRead, self, unread, unset},
			wantErr:     "keep-list entry internal/lib.S.read is not flagged",
		},
		{
			name:        "a keep-listed field that does not exist fails",
			keep:        map[string]string{"internal/lib.S.gone": "reason"},
			wantFlagged: []string{written, testRead, self, unread, unset},
			wantErr:     "keep-list entry internal/lib.S.gone does not exist",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := prog.unusedFields(tc.keep)
			if (tc.wantErr == "") != (err == nil) || !strings.Contains(fmt.Sprint(err), tc.wantErr) {
				t.Errorf("err = %v, want %q", err, tc.wantErr)
			}
			if got, want := strings.Join(got, "\n"), strings.Join(tc.wantFlagged, "\n"); got != want {
				t.Errorf("flagged:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// program is every non-test package of one module, type-checked.
type program struct {
	dir  string
	mod  string // module path
	fset *token.FileSet
	pkgs map[string]*pkgInfo // by path relative to the module root
	std  []*types.Package    // standard-library packages the module imports
	uses map[*ast.Ident]types.Object
}

type pkgInfo struct {
	rel     string
	files   []*ast.File
	types   *types.Package
	info    *types.Info
	imports []string // module packages imported directly, relative paths
}

// loadProgram parses and type-checks every non-test package under the
// module rooted at dir, skipping testdata and hidden directories.
func loadProgram(dir string) (*program, error) {
	mod, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	p := &program{dir: dir, mod: mod, fset: token.NewFileSet(), pkgs: map[string]*pkgInfo{}, uses: map[*ast.Ident]types.Object{}}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return p.parseDir(path)
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(p.fset, "source", nil)
	seen := map[*types.Package]bool{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		rel, ok := p.relPath(path)
		if !ok {
			pkg, err := std.Import(path)
			if err == nil && !seen[pkg] {
				seen[pkg] = true
				p.std = append(p.std, pkg)
			}
			return pkg, err
		}
		pi := p.pkgs[rel]
		if pi == nil {
			return nil, fmt.Errorf("package %s not found", path)
		}
		if pi.types == nil {
			pi.info = &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  p.uses,
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(path, p.fset, pi.files, pi.info)
			if err != nil {
				return nil, err
			}
			pi.types = pkg
		}
		return pi.types, nil
	}
	for _, rel := range p.sortedPkgs() {
		if _, err := imp(p.importPath(rel)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (p *program) parseDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(p.dir, dir)
	if err != nil {
		return err
	}
	pi := &pkgInfo{rel: filepath.ToSlash(rel)}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pi.files = append(pi.files, f)
		for _, is := range f.Imports {
			if r, ok := p.relPath(strings.Trim(is.Path.Value, `"`)); ok {
				pi.imports = append(pi.imports, r)
			}
		}
	}
	if len(pi.files) > 0 {
		p.pkgs[pi.rel] = pi
	}
	return nil
}

func (p *program) relPath(importPath string) (string, bool) {
	if importPath == p.mod {
		return ".", true
	}
	rel, ok := strings.CutPrefix(importPath, p.mod+"/")
	return rel, ok
}

func (p *program) importPath(rel string) string {
	if rel == "." {
		return p.mod
	}
	return p.mod + "/" + rel
}

func (p *program) sortedPkgs() []string {
	rels := make([]string, 0, len(p.pkgs))
	for rel := range p.pkgs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	return rels
}

// deps returns the module packages rel links, rel included.
func (p *program) deps(rel string) map[string]bool {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(r string) {
		if seen[r] {
			return
		}
		seen[r] = true
		for _, imp := range p.pkgs[r].imports {
			visit(imp)
		}
	}
	visit(rel)
	return seen
}

// isRoot reports whether rel is a binary whose main function is a root.
func isRoot(pi *pkgInfo) bool {
	return pi.types.Name() == "main" && (pi.rel == "benchmark" || strings.HasPrefix(pi.rel, "cmd/") || strings.HasPrefix(pi.rel, "examples/"))
}

// reported reports whether unreachable declarations of rel are errors.
func reported(rel string) bool {
	for _, dir := range []string{"internal/", "cmd/", "examples/"} {
		if strings.HasPrefix(rel, dir) {
			return true
		}
	}
	return false
}

// decl is one package-level declaration: a func, method, type, var or
// const, with the syntax whose references it keeps alive.
type decl struct {
	name string // relative package path, receiver type and name
	pos  token.Pos
	node ast.Node
}

// unreachable returns "file:line name" for every declaration under
// internal/, cmd/ and examples/ that no binary reaches, minus the keep
// list, and an error naming every keep-list entry that is reachable or
// does not exist.
func (p *program) unreachable(keep map[string]string) ([]string, error) {
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []ast.Node
	var rootVars []types.Object
	linked := map[string]bool{}
	for _, pi := range p.pkgs {
		if isRoot(pi) {
			for r := range p.deps(pi.rel) {
				linked[r] = true
			}
		}
	}
	for _, rel := range p.sortedPkgs() {
		pi := p.pkgs[rel]
		for _, f := range pi.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" && linked[rel] || d.Name.Name == "main" && isRoot(pi)) {
						roots = append(roots, d)
						continue
					}
					fn := pi.info.Defs[d.Name].(*types.Func)
					name := rel + "." + d.Name.Name
					if tn := recvTypeName(fn); tn != nil {
						name = rel + "." + tn.Name() + "." + d.Name.Name
						methods[tn] = append(methods[tn], fn)
					}
					decls[fn] = &decl{name: name, pos: d.Name.Pos(), node: d}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[pi.info.Defs[s.Name]] = &decl{name: rel + "." + s.Name.Name, pos: s.Name.Pos(), node: s}
						case *ast.ValueSpec:
							root := linked[rel] && d.Tok == token.VAR && callsFunc(pi.info, s)
							for _, id := range s.Names {
								if id.Name == "_" {
									if root {
										roots = append(roots, s)
									}
									continue
								}
								obj := pi.info.Defs[id]
								decls[obj] = &decl{name: rel + "." + id.Name, pos: id.Pos(), node: s}
								if root {
									rootVars = append(rootVars, obj)
								}
							}
						}
					}
				}
			}
		}
	}

	ifaceNames := p.interfaceMethodNames()
	reached := map[types.Object]bool{}
	var queue []ast.Node
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		d := decls[obj]
		if d == nil || reached[obj] {
			return
		}
		reached[obj] = true
		queue = append(queue, d.node)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceNames[m.Name()] {
					mark(m)
				}
			}
		}
		if named, ok := obj.Type().(*types.Named); ok {
			mark(named.Obj())
		}
	}
	queue = append(queue, roots...)
	for _, obj := range rootVars {
		mark(obj)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}

	byName := map[string]types.Object{}
	for obj, d := range decls {
		byName[d.name] = obj
	}
	var problems []string
	for name := range keep {
		switch obj, ok := byName[name]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("keep-list entry %s does not exist", name))
		case reached[obj]:
			problems = append(problems, fmt.Sprintf("keep-list entry %s is reachable", name))
		}
	}
	var deadDecls []*decl
	for obj, d := range decls {
		rel := strings.SplitN(d.name, ".", 2)[0]
		if !reached[obj] && keep[d.name] == "" && reported(rel) {
			deadDecls = append(deadDecls, d)
		}
	}
	sort.Slice(deadDecls, func(i, j int) bool { return deadDecls[i].pos < deadDecls[j].pos })
	dead := make([]string, len(deadDecls))
	for i, d := range deadDecls {
		pos := p.fset.Position(d.pos)
		file, _ := filepath.Rel(p.dir, pos.Filename)
		dead[i] = fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), pos.Line, d.name)
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		return dead, fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return dead, nil
}

// callsFunc reports whether a var spec's initializer calls a function
// (a conversion is not a call).
func callsFunc(info *types.Info, s *ast.ValueSpec) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && !info.Types[c.Fun].IsType() {
				calls = true
			}
			return !calls
		})
	}
	return calls
}

func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// interfaceMethodNames collects the method names of every interface type
// written in the module and every interface declared at package level
// in the standard-library packages it imports, error included.
func (p *program) interfaceMethodNames() map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, pi := range p.pkgs {
		for e, tv := range pi.info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.std {
		visit(pkg)
	}
	return names
}

type importRule struct {
	from, to, why string
}

// violations returns one line per module package that links a package
// an import rule forbids it.
func (p *program) violations(rules []importRule) []string {
	var out []string
	for _, r := range rules {
		from, to := regexp.MustCompile(r.from), regexp.MustCompile(r.to)
		for _, rel := range p.sortedPkgs() {
			if !from.MatchString(rel) {
				continue
			}
			var bad []string
			for dep := range p.deps(rel) {
				if dep != rel && to.MatchString(dep) {
					bad = append(bad, dep)
				}
			}
			sort.Strings(bad)
			for _, dep := range bad {
				out = append(out, fmt.Sprintf("%s links %s: %s", rel, dep, r.why))
			}
		}
	}
	return out
}

// field is one struct field declared under internal/.
type field struct {
	name   string // relative package path, struct type and field name
	pos    token.Pos
	config bool // a field of an exported *Config, *Options or *Opts struct
}

// unusedFields returns "file:line name: why" for every struct field
// declared under internal/ that non-test code writes and never reads
// (rule 1), and for every field of an exported *Config, *Options or
// *Opts struct under internal/ that non-test code never writes (rule 2),
// minus the keep list, and an error naming every keep-list entry that is
// not flagged or does not exist. A use is a write when it is the left
// side of = or op=, a use of that same field on the right side of the
// assignment, the operand of ++ or --, or a key (or a position) in a
// composite literal; every other use is a read. Fields with a struct
// tag (reflection reads them), embedded fields (promoted access never
// names them) and fields of a sync or sync/atomic type are exempt.
func (p *program) unusedFields(keep map[string]string) ([]string, error) {
	fields := map[*types.Var]*field{}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, rel := range p.sortedPkgs() {
		pi := p.pkgs[rel]
		for _, f := range pi.files {
			named := map[*ast.StructType]string{}
			writes := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name
					}
				case *ast.StructType:
					if strings.HasPrefix(rel, "internal/") {
						declareFields(pi, n, named[n], fields)
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								writes[sel.Sel] = true
								selfReads(p, sel.Sel, n.Rhs, writes)
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				case *ast.CompositeLit:
					st, _ := pi.info.Types[n].Type.Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						} else if st != nil {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.Ident:
					if v, ok := p.uses[n].(*types.Var); ok && v.IsField() {
						if writes[n] {
							written[v.Origin()] = true
						} else {
							read[v.Origin()] = true
						}
					}
				}
				return true
			})
		}
	}

	byName := map[string]*types.Var{}
	var flagged []*field
	why := map[*field]string{}
	for v, f := range fields {
		byName[f.name] = v
		switch {
		case written[v] && !read[v]:
			why[f] = "written, never read"
		case f.config && !written[v]:
			why[f] = "config field nothing sets"
		default:
			continue
		}
		if keep[f.name] == "" {
			flagged = append(flagged, f)
		}
	}
	var problems []string
	for name := range keep {
		switch v, ok := byName[name]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("keep-list entry %s does not exist", name))
		case why[fields[v]] == "":
			problems = append(problems, fmt.Sprintf("keep-list entry %s is not flagged", name))
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].pos < flagged[j].pos })
	out := make([]string, len(flagged))
	for i, f := range flagged {
		pos := p.fset.Position(f.pos)
		file, _ := filepath.Rel(p.dir, pos.Filename)
		out[i] = fmt.Sprintf("%s:%d %s: %s", filepath.ToSlash(file), pos.Line, f.name, why[f])
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		return out, fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return out, nil
}

// selfReads marks as writes the uses of the field lhs names that occur
// in rhs: a field read only to compute its own next value (a.f =
// a.f*10 + d) is not read by anything else.
func selfReads(p *program, lhs *ast.Ident, rhs []ast.Expr, writes map[*ast.Ident]bool) {
	v, ok := p.uses[lhs].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	for _, e := range rhs {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u, ok := p.uses[id].(*types.Var); ok && u.Origin() == v.Origin() {
					writes[id] = true
				}
			}
			return true
		})
	}
}

// declareFields adds the fields of st, a struct type in package pi, that
// the field rules check. typeName is the name st is declared under, or
// "" for an anonymous struct.
func declareFields(pi *pkgInfo, st *ast.StructType, typeName string, fields map[*types.Var]*field) {
	config := token.IsExported(typeName) && (strings.HasSuffix(typeName, "Config") || strings.HasSuffix(typeName, "Options") || strings.HasSuffix(typeName, "Opts"))
	if typeName == "" {
		typeName = "struct"
	}
	for _, fl := range st.Fields.List {
		if fl.Tag != nil || len(fl.Names) == 0 || syncType(pi.info.Types[fl.Type].Type) {
			continue
		}
		for _, id := range fl.Names {
			if id.Name == "_" {
				continue
			}
			fields[pi.info.Defs[id].(*types.Var)] = &field{name: pi.rel + "." + typeName + "." + id.Name, pos: id.Pos(), config: config}
		}
	}
}

// syncType reports whether t, or what it points to, is declared in sync
// or sync/atomic.
func syncType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		path := named.Obj().Pkg().Path()
		return path == "sync" || path == "sync/atomic"
	}
	return false
}
