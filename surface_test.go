package gyan

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "gyan"

// seams is the only escape from TestExportedSurfaceIsUsed: an exported
// fault-injection hook or recovery observer that no program calls, kept
// because a test in a *different* package (an external p_test package
// included) drives the system through it and could not reach it unexported.
// Each entry names that test; the check fails on an entry no other-package
// test references, on one the programs have since started to call, and on a
// sixteenth.
var seams = map[string]string{
	"journal.Journal.HoldFlush":       "parks the flushers so a crash loses staged records on cue: galaxy TestCrashMidWorkloadRequeuesWithSeniority, api TestAsyncDurableAckWaitsForWatermark",
	"faults.NewMsgPlan":               "arms the message-fault plan a simulated bus consults: cluster TestTransportChaosKillBetweenPhases, transporttest TestSimBusConformance",
	"faults.MsgPlan.Cut":              "installs a one-way partition: cluster TestStaggeredDetectionDivergentViews, transport TestBusOneWayPartitionAndKill",
	"faults.MsgPlan.Heal":             "lifts a one-way partition: transport TestBusOneWayPartitionAndKill, transporttest TestSimBusConformance",
	"faults.MsgPlan.MsgFired":         "tells a chaos phase its injected fault has fired: cluster TestTransportChaosKillBetweenPhases",
	"faults.Quarantine.IsQuarantined": "asks whether one device is fenced at an instant: galaxy TestQuarantineRoutesRetryAroundBadDevice",
	"transport.Bus.Revive":            "restarts a killed member on the simulated bus: transporttest TestSimBusConformance",
	"tcpbus.Bus.Revive":               "restarts a killed endpoint in process: tcpbus_test TestTCPBusConformance",
	"tcpbus.Bus.Cut":                  "blocks one outbound direction: tcpbus_test TestTCPBusConformance",
	"tcpbus.Bus.Heal":                 "lifts a Cut: tcpbus_test TestTCPBusConformance",
	"sched.Scheduler.Usage":           "the one window on a fair-share account: galaxy TestRecoverRestoresQuarantineAndFairShare checks recovery re-credits it",
}

const maxSeams = 15

// TestExportedSurfaceIsUsed holds the tree to one rule: an exported function
// or method of internal/ or cmd/ is part of the system only if a non-test
// file of the module references it (bench/, examples/ and cmd/ count as
// callers), or it implements a method of an interface through which non-test
// code calls its type — an interface of the standard library, whose callers
// are out of sight, or one of the module's whose method non-test code calls.
// A function only tests reach is surface a reviewer must read and a refactor
// must keep compiling for nothing: delete it with its tests, unexport it if
// only its own package's tests need it, or — for a fault hook — list it in
// seams. Wiring a flag or an endpoint to it just to pass is the wrong fix.
func TestExportedSurfaceIsUsed(t *testing.T) {
	m := loadModule(t)
	l, live := m.l, m.live

	// Pass 1: the programs. Every non-test file of every package that is not
	// itself test support (one whose non-test files import "testing").
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	stdImported := map[*types.Package]bool{}
	for _, p := range live {
		for _, imp := range p.types.Imports() {
			if !inModule(imp.Path()) {
				stdImported[imp] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if i, ok := p.info.TypeOf(it).(*types.Interface); ok && i.NumMethods() > 0 {
						ifaces = append(ifaces, i)
					}
				}
				return true
			})
			for _, d := range f.Decls {
				markUses(p.info, d, used)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for sp := range stdImported {
		scope := sp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if i, ok := tn.Type().Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
				ifaces = append(ifaces, i)
			}
		}
	}

	// Pass 2: the tests. What each package's test files (and the non-test
	// files of a test-support package) reference in *other* packages.
	testUsed := map[*types.Func]bool{}
	for _, u := range m.tests {
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := u.info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg() == u.own {
					return true
				}
				if q, ok := l.pkgs[fn.Pkg().Path()]; ok && q.types == fn.Pkg() {
					testUsed[fn.Origin()] = true
				}
				return true
			})
		}
	}

	// The rule, over every exported func, method and interface method that
	// internal/ and cmd/ declare.
	seamSeen := map[string]bool{}
	var dead []string
	for _, p := range live {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") && !strings.HasPrefix(p.path, modulePath+"/cmd/") {
			continue
		}
		for _, fn := range p.exportedFuncs() {
			name := funcName(fn)
			reason, isSeam := seams[name]
			switch {
			case used[fn] || viaInterface(fn, ifaces, used):
				if isSeam {
					t.Errorf("seam %s is referenced by non-test code now: drop it from seams", name)
					seamSeen[name] = true
				}
			case isSeam:
				seamSeen[name] = true
				if reason == "" {
					t.Errorf("seam %s gives no reason", name)
				}
				if !testUsed[fn] {
					t.Errorf("seam %s is referenced by no test outside package %s: delete or unexport it", name, fn.Pkg().Name())
				}
			default:
				pos := l.fset.Position(fn.Pos())
				rel, _ := filepath.Rel(l.root, pos.Filename)
				dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, name))
			}
		}
	}
	for name := range seams {
		if !seamSeen[name] {
			t.Errorf("seam %s names nothing the tree declares", name)
		}
	}
	if len(seams) > maxSeams {
		t.Errorf("seams has %d entries; the cap is %d", len(seams), maxSeams)
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d exported functions and methods are referenced by no non-test file and implement no interface the programs call through:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// optionSeams is the only escape from TestOptionFieldsAreSet: an option field
// no program sets, kept because a test in a *different* package configures a
// fault through it. Each entry names that test; the check fails on an entry
// no other-package test sets, on one a program has since started to set, and
// on a seventh.
var optionSeams = map[string]string{}

const maxOptionSeams = 6

// TestOptionFieldsAreSet holds option structs to the same rule: an exported
// field of an exported internal/ struct whose name ends in Config, Options or
// Params (and of faults.Backoff) is part of the system only if a non-test
// file outside its package sets it, by keyed composite literal or by
// assignment. A set inside the package counts only as a forwarder — its value
// reads another option field, as Sim hands SimConfig.Dir to Config.Dir — and
// only if that source field passes. A field only tests set is a mode nobody
// runs: delete it with the behaviour it enables, make it a constant where
// the code still needs the value, unexport it if only its own package's
// tests set it, or — for a fault plan — list it in optionSeams. Adding a flag
// or an API field just to pass is the wrong fix.
func TestOptionFieldsAreSet(t *testing.T) {
	m := loadModule(t)
	l := m.l

	// The fields the rule covers, by their optionSeams spelling.
	fields := map[*types.Var]string{}
	for _, p := range m.live {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isOptionStruct(p.types.Name(), name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				// A tagged field is set by the decoder that reads the tag.
				if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					fields[f] = p.types.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	// The programs: which fields another package sets, and which a field's
	// own package sets from which other option fields.
	set := map[*types.Var]bool{}
	forwards := map[*types.Var][]*types.Var{}
	for _, p := range m.live {
		for _, file := range p.files {
			eachFieldSet(p.info, file, func(f *types.Var, value ast.Expr) {
				if _, ok := fields[f]; !ok {
					return
				}
				if f.Pkg() != p.types {
					set[f] = true
					return
				}
				eachFieldRead(p.info, value, func(src *types.Var) {
					if _, ok := fields[src]; ok && src != f {
						forwards[f] = append(forwards[f], src)
					}
				})
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for f, srcs := range forwards {
			for _, src := range srcs {
				if set[src] && !set[f] {
					set[f], changed = true, true
				}
			}
		}
	}

	// The tests: which fields of other packages they set.
	testSet := map[*types.Var]bool{}
	for _, u := range m.tests {
		for _, file := range u.files {
			eachFieldSet(u.info, file, func(f *types.Var, _ ast.Expr) {
				if f.Pkg() != u.own {
					testSet[f] = true
				}
			})
		}
	}

	seamSeen := map[string]bool{}
	var unset []string
	for f, name := range fields {
		reason, isSeam := optionSeams[name]
		switch {
		case set[f]:
			if isSeam {
				t.Errorf("option seam %s is set by non-test code now: drop it from optionSeams", name)
				seamSeen[name] = true
			}
		case isSeam:
			seamSeen[name] = true
			if reason == "" {
				t.Errorf("option seam %s gives no reason", name)
			}
			if !testSet[f] {
				t.Errorf("option seam %s is set by no test outside package %s: delete or unexport it", name, f.Pkg().Name())
			}
		default:
			pos := l.fset.Position(f.Pos())
			rel, _ := filepath.Rel(l.root, pos.Filename)
			unset = append(unset, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, name))
		}
	}
	for name := range optionSeams {
		if !seamSeen[name] {
			t.Errorf("option seam %s names nothing the tree declares", name)
		}
	}
	if len(optionSeams) > maxOptionSeams {
		t.Errorf("optionSeams has %d entries; the cap is %d", len(optionSeams), maxOptionSeams)
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Errorf("%d of %d option fields are set by no non-test file outside their package:\n\t%s",
			len(unset), len(fields), strings.Join(unset, "\n\t"))
	}
}

// TestRecordFieldsAreRead holds the journal's record to the rule its kinds
// already obey (journal.TestFoldReadsEveryRecordKind): a field of
// journal.Record or journal.WFStep is part of the format only if some
// non-test file reads it — names it anywhere but as a composite-literal key
// or an assignment's target. A field that is only ever set costs its bytes in
// every record that carries it and tells recovery nothing: delete it (an old
// journal's key is ignored by encoding/json), or make the reader that was
// meant to act on it do so.
func TestRecordFieldsAreRead(t *testing.T) {
	m := loadModule(t)
	jp := m.l.load(modulePath + "/internal/journal")
	fields := map[*types.Var]string{}
	for _, name := range []string{"Record", "WFStep"} {
		st := jp.types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}
	for _, p := range m.live {
		for _, file := range p.files {
			eachFieldRead(p.info, file, func(f *types.Var) { delete(fields, f) })
		}
	}
	var unread []string
	for f, name := range fields {
		pos := m.l.fset.Position(f.Pos())
		rel, _ := filepath.Rel(m.l.root, pos.Filename)
		unread = append(unread, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, name))
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d journal record fields are written and read by no non-test file:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// isOptionStruct is the naming rule: …Config, …Options, …Params, and the one
// option struct named otherwise.
func isOptionStruct(pkgName, name string) bool {
	for _, suffix := range []string{"Config", "Options", "Params"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return pkgName == "faults" && name == "Backoff"
}

// eachFieldRead calls fn for every struct field the node reads; the keys of a
// composite literal and the field an assignment stores to are named there
// without being read.
func eachFieldRead(info *types.Info, e ast.Node, fn func(f *types.Var)) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			eachFieldRead(info, n.Value, fn)
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && n.Tok == token.ASSIGN {
					lhs = sel.X
				}
				eachFieldRead(info, lhs, fn)
			}
			for _, rhs := range n.Rhs {
				eachFieldRead(info, rhs, fn)
			}
			return false
		case *ast.Ident:
			if f, ok := info.Uses[n].(*types.Var); ok && f.IsField() {
				fn(f.Origin())
			}
		}
		return true
	})
}

// eachFieldSet calls fn for every struct field the file sets — a key of a
// composite literal, or the left side of an assignment — with the value.
func eachFieldSet(info *types.Info, file *ast.File, fn func(f *types.Var, value ast.Expr)) {
	field := func(id *ast.Ident, value ast.Expr) {
		if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
			fn(f.Origin(), value)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						field(id, kv.Value)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					field(sel.Sel, n.Rhs[min(i, len(n.Rhs)-1)])
				}
			}
		}
		return true
	})
}

// markUses records every function or method the declaration references,
// except a function's references to itself.
func markUses(info *types.Info, d ast.Decl, used map[*types.Func]bool) {
	var self types.Object
	if fd, ok := d.(*ast.FuncDecl); ok {
		self = info.Defs[fd.Name]
	}
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
				used[fn.Origin()] = true
			}
		}
		return true
	})
}

// viaInterface reports whether the method implements a method of an interface
// the programs call its type through: any interface outside the module with a
// method of that name that the receiver (or its pointer) implements, or one of
// the module's whose own method of that name is used.
func viaInterface(fn *types.Func, ifaces []*types.Interface, used map[*types.Func]bool) bool {
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, i := range ifaces {
		for k := 0; k < i.NumMethods(); k++ {
			m := i.Method(k)
			if m.Name() != fn.Name() || m == fn {
				continue
			}
			if !types.Implements(named, i) && !types.Implements(types.NewPointer(named), i) {
				continue
			}
			if m.Pkg() == nil || !inModule(m.Pkg().Path()) || used[m.Origin()] {
				return true
			}
		}
	}
	return false
}

// funcName is the seams-table spelling: pkg.Func, pkg.Type.Method.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if named := recvNamed(fn); named != nil {
		name += named.Obj().Name() + "."
	}
	return name + fn.Name()
}

// recvNamed is the named type a method is declared on, through a pointer
// receiver if need be; nil for a plain function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, _ := rt.(*types.Named)
	return named
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// pkg is one directory's non-test files, type-checked once and shared by
// everything that imports it, so a *types.Func is one pointer module-wide.
type pkg struct {
	path        string
	bp          *build.Package
	files       []*ast.File
	types       *types.Package
	info        *types.Info
	testSupport bool
}

// exportedFuncs lists the package's exported functions and methods, and the
// exported methods its interface types declare.
func (p *pkg) exportedFuncs() []*types.Func {
	var out []*types.Func
	add := func(id *ast.Ident) {
		if fn, ok := p.info.Defs[id].(*types.Func); ok && id.IsExported() {
			out = append(out, fn)
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						add(id)
					}
				}
			}
			return true
		})
	}
	return out
}

// loader type-checks the module from source: its own packages through load,
// the standard library through go/importer's "source" mode.
type loader struct {
	t    *testing.T
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*pkg
}

func newLoader(t *testing.T) *loader {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &loader{t: t, fset: fset, root: root, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		return l.std.Import(path)
	}
	return l.load(path).types, nil
}

func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		l.t.Fatal(err)
	}
	if rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

func (l *loader) dir(path string) string {
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
}

// packageDirs is every directory of the module holding Go files this
// platform builds, skipping dot- and underscore-directories and testdata.
func (l *loader) packageDirs() []string {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
	return dirs
}

func (l *loader) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.t.Errorf("type-checking %s: %v", path, err) }}
	tp, _ := conf.Check(path, l.fset, files, info)
	return tp, info
}

func (l *loader) load(path string) *pkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := l.dir(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	p := &pkg{path: path, bp: bp, files: l.parse(dir, bp.GoFiles)}
	l.pkgs[path] = p
	for _, imp := range bp.Imports {
		p.testSupport = p.testSupport || imp == "testing"
	}
	p.types, p.info = l.check(path, p.files)
	return p
}

// testFiles is one batch of files that count as tests, with the info that
// resolves them: own is the package whose objects are the batch's own (nil
// when those resolve into a variant and can never be mistaken for shared ones).
type testFiles struct {
	files []*ast.File
	info  *types.Info
	own   *types.Package
}

// testUnits type-checks the directory's test files — in-package ones together
// with the package, external ones on their own, so that for an external test
// package (package p_test) p is another package. A test-support package's
// non-test files count as tests.
func (l *loader) testUnits(dir string) []testFiles {
	p := l.load(l.importPath(dir))
	var out []testFiles
	if p.testSupport {
		out = append(out, testFiles{p.files, p.info, p.types})
	}
	if len(p.bp.TestGoFiles) > 0 {
		tests := l.parse(dir, p.bp.TestGoFiles)
		_, info := l.check(p.path, append(append([]*ast.File(nil), p.files...), tests...))
		out = append(out, testFiles{tests, info, nil})
	}
	if len(p.bp.XTestGoFiles) > 0 {
		tests := l.parse(dir, p.bp.XTestGoFiles)
		_, info := l.check(p.path+"_test", tests)
		out = append(out, testFiles{tests, info, nil})
	}
	return out
}

// module is the tree type-checked once per test binary and shared by the
// surface checks: the programs' packages and every batch of test files.
type module struct {
	l     *loader
	live  []*pkg
	tests []testFiles
}

var (
	moduleOnce sync.Once
	theModule  *module
)

// loadModule type-checks the module on first use. Load errors are reported
// on the test that triggered the load; a later test fails by name only.
func loadModule(t *testing.T) *module {
	moduleOnce.Do(func() {
		l := newLoader(t)
		m := &module{l: l}
		for _, dir := range l.packageDirs() {
			if p := l.load(l.importPath(dir)); !p.testSupport {
				m.live = append(m.live, p)
			}
			m.tests = append(m.tests, l.testUnits(dir)...)
		}
		if !t.Failed() {
			theModule = m
		}
	})
	if theModule == nil {
		t.Fatal("the module did not type-check; see the first surface test")
	}
	return theModule
}
