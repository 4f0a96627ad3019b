package recsim

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowlist names the exported declarations under internal/ or in
// the root package that no non-test code references and that stay anyway,
// each with its reason. A name is the package's path below internal/ (or
// recsim for the root), then the declaration, then the method for a
// method: "tensor.SetVectorKernels", "core.Model.Step", "recsim.Describe".
var deadAPIAllowlist = map[string]string{
	"collective.PerfectLink":              "zero-cost wire model that the collective tests build their worlds on",
	"embedding.MaxOverMean":               "load-imbalance measure shared by the sharding tests and the root sharding ablation benchmark",
	"embedding.NewBag":                    "bag fixture that the ckpt, core, embedding and optim tests build batches with",
	"memtier.HitRateFromCounts":           "measured-profile hit rate that ROADMAP item 13 checks the analytic model against",
	"memtier.HitRateZipf":                 "analytic Zipf hit rate that ROADMAP item 13 checks against a measured lookup",
	"nn.NumericalGradient":                "finite-difference oracle that the nn and core gradient checks share",
	"perfmodel.IngestExamplesPerSec":      "reader-tier roofline term for ROADMAP item 13's predicted-over-observed ratios",
	"perfmodel.IngestRecordBytes":         "record-size term under IngestExamplesPerSec; the ingest tests pin it to the shard format",
	"telemetry.ShardAttribution.Coverage": "per-shard tiling check that the core, hybrid and telemetry tests assert",
	"tensor.FromData":                     "matrix fixture that the tensor, nn and embedding tests build operands with",
	"tensor.Matrix.Equal":                 "tolerance comparison that tests in five packages share",
	"tensor.NormalInit":                   "random-operand fixture shared by the tensor, nn, embedding and core tests and the root benchmarks",
	"tensor.SetVectorKernels":             "test hook that flips the assembly kernels off to compare them with the Go kernels",
}

// TestNoDeadAPI type-checks every non-test package of this module and the
// nested bench/e2e module (its tests included) and fails on any exported
// package-level name or method declared under internal/ or in the root
// package that no code outside the root module's tests references, outside
// its own declaration, unless deadAPIAllowlist names it. The root package's
// godoc Example functions count as code: they are the facade's documented
// uses. A method that satisfies an interface counts as used. An allowlist
// entry whose name is used, or gone, fails too, so the list stays exact.
func TestNoDeadAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	s := newDeadScan(t)
	dead := s.unused()
	var unexpected []string
	for _, name := range dead {
		if _, ok := deadAPIAllowlist[name]; !ok {
			unexpected = append(unexpected, name)
		}
	}
	deadSet := map[string]bool{}
	for _, name := range dead {
		deadSet[name] = true
	}
	var stale []string
	for name := range deadAPIAllowlist {
		if !deadSet[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range unexpected {
		t.Errorf("%s: exported, but only tests reference it: delete it, or allowlist it with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("%s: on deadAPIAllowlist, but a program references it or it is gone: drop the entry", name)
	}
}

// deadScan holds one type-checked view of both modules. It imports the
// repro packages itself, so every use of an internal/ object resolves to
// the one object it checked, and leaves the standard library to the
// source importer.
type deadScan struct {
	t    *testing.T
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*types.Package // repro import path -> checked package
	// decls maps each candidate object to the source ranges whose uses of
	// it do not count: its own declaration, and for a type its methods.
	decls map[types.Object][]posRange
	names map[types.Object]string // candidate -> its name in reports
	infos []*types.Info           // every checked package's references
}

type posRange struct{ from, to token.Pos }

const modulePath = "repro"

func newDeadScan(t *testing.T) *deadScan {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The scan needs types, not object code: without cgo the source
	// importer checks net and os/user from their pure-Go files instead of
	// running a C toolchain, which a cross-compiled test may not have.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	fset := token.NewFileSet()
	s := &deadScan{
		t:     t,
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  map[string]*types.Package{},
		decls: map[types.Object][]posRange{},
		names: map[types.Object]string{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files := s.parseDir(dir, false)
		if len(files) == 0 {
			continue
		}
		if files[0].Name.Name == "main" {
			s.check(dir, "main", files)
		} else {
			s.importDir(s.importPath(dir))
		}
	}
	// bench/e2e is the benchmark of record: what it or its tests reference
	// is live. Its files are one package main (no external test package).
	bench := filepath.Join(root, "bench", "e2e")
	s.check(bench, "main", s.parseDir(bench, true))
	s.addExampleUses()
	return s
}

// addExampleUses type-checks the root's external test package and keeps
// only the references made inside its Example functions.
func (s *deadScan) addExampleUses() {
	var files []*ast.File
	var examples []posRange
	for _, f := range s.parseDir(s.root, true) {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		files = append(files, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				examples = append(examples, posRange{fd.Pos(), fd.End()})
			}
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	if _, err := conf.Check(modulePath+"_test", s.fset, files, info); err != nil {
		s.t.Fatalf("type-check %s examples: %v", s.root, err)
	}
	kept := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	for id, obj := range info.Uses {
		for _, r := range examples {
			if r.from <= id.Pos() && id.Pos() < r.to {
				kept.Uses[id] = obj
				break
			}
		}
	}
	s.infos = append(s.infos, kept)
}

func (s *deadScan) importPath(dir string) string {
	rel, err := filepath.Rel(s.root, dir)
	if err != nil {
		s.t.Fatal(err)
	}
	if rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

// parseDir parses the Go files in dir that build for this platform,
// skipping _test.go files unless withTests.
func (s *deadScan) parseDir(dir string, withTests bool) []*ast.File {
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || (!withTests && strings.HasSuffix(name, "_test.go")) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			s.t.Fatal(err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			s.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func (s *deadScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.root, 0)
}

func (s *deadScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return s.importDir(path), nil
	}
	return s.std.ImportFrom(path, dir, mode)
}

func (s *deadScan) importDir(path string) *types.Package {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg
	}
	dir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	pkg := s.check(dir, path, s.parseDir(dir, false))
	s.pkgs[path] = pkg
	return pkg
}

func (s *deadScan) check(dir, path string, files []*ast.File) *types.Package {
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		s.t.Fatalf("type-check %s: %v", dir, err)
	}
	s.infos = append(s.infos, info)
	if rel, ok := strings.CutPrefix(path, modulePath+"/internal/"); ok {
		s.addCandidates(rel, files, info)
	} else if path == modulePath {
		s.addCandidates(pkg.Name(), files, info)
	}
	return pkg
}

// addCandidates records the exported package-level objects and the
// exported methods of package-level types declared in files, with the
// ranges whose references to them do not count.
func (s *deadScan) addCandidates(pkgName string, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			r := posRange{decl.Pos(), decl.End()}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if d.Recv == nil {
					if obj.Exported() {
						s.addCandidate(obj, pkgName+"."+obj.Name(), r)
					}
					continue
				}
				recv := recvTypeName(d.Recv.List[0].Type)
				typ := info.Uses[recv]
				if typ == nil {
					continue
				}
				// A type's own methods do not keep the type alive.
				s.decls[typ] = append(s.decls[typ], r)
				if obj.Exported() {
					s.addCandidate(obj, pkgName+"."+typ.Name()+"."+obj.Name(), r)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if obj := info.Defs[sp.Name]; obj.Exported() {
							s.addCandidate(obj, pkgName+"."+obj.Name(), posRange{sp.Pos(), sp.End()})
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if obj := info.Defs[id]; obj != nil && obj.Exported() {
								s.addCandidate(obj, pkgName+"."+obj.Name(), posRange{sp.Pos(), sp.End()})
							}
						}
					}
				}
			}
		}
	}
}

func (s *deadScan) addCandidate(obj types.Object, name string, r posRange) {
	s.names[obj] = name
	s.decls[obj] = append(s.decls[obj], r)
}

func recvTypeName(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// unused returns the sorted names of the candidates that nothing outside
// their own declarations references and that satisfy no interface.
func (s *deadScan) unused() []string {
	used := map[types.Object]bool{}
	for _, info := range s.infos {
		for id, obj := range info.Uses {
			obj = origin(obj)
			if _, ok := s.names[obj]; ok && !s.inOwnDecl(obj, id.Pos()) {
				used[obj] = true
			}
		}
	}
	ifaces := s.interfaces()
	var dead []string
	for obj, name := range s.names {
		if used[obj] || satisfiesInterface(obj, ifaces) {
			continue
		}
		dead = append(dead, name)
	}
	sort.Strings(dead)
	return dead
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (s *deadScan) inOwnDecl(obj types.Object, pos token.Pos) bool {
	for _, r := range s.decls[obj] {
		if r.from <= pos && pos < r.to {
			return true
		}
	}
	return false
}

// interfaces returns every named interface type declared in a package
// the scan checked or imported, and error.
func (s *deadScan) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.pkgs {
		walk(p)
	}
	return ifaces
}

// satisfiesInterface reports whether obj is a method that, with its
// receiver type, satisfies one of ifaces.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}
