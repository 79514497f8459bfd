package script

import (
	"fmt"
	"sync"

	"ids/internal/expr"
	"ids/internal/udf"
)

// Loader owns the module cache and the bridge into the UDF registry.
// As in the paper (§2.3): loading a module is assumed expensive, so
// the first Load parses and caches it, subsequent Loads of the same
// name are cache hits even if the source changed, and ForceReload is
// the special function that re-parses and refreshes a running
// instance's bindings.
type Loader struct {
	mu    sync.Mutex
	cache map[string]*Module
	// LoadCost is the modeled one-time cost in seconds of importing a
	// module (the paper caches modules to amortize it).
	LoadCost float64
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	return &Loader{cache: map[string]*Module{}, LoadCost: 0.5}
}

// Load returns the named module, parsing src only on the first call.
// The returned cost is LoadCost on a parse and 0 on a cache hit.
func (l *Loader) Load(name, src string) (*Module, float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.cache[name]; ok {
		return m, 0, nil
	}
	m, err := ParseModule(name, src)
	if err != nil {
		return nil, 0, err
	}
	l.cache[name] = m
	return m, l.LoadCost, nil
}

// ForceReload re-parses src and replaces the cached module, returning
// the new module. The load cost is always paid.
func (l *Loader) ForceReload(name, src string) (*Module, float64, error) {
	m, err := ParseModule(name, src)
	if err != nil {
		return nil, 0, err
	}
	l.mu.Lock()
	l.cache[name] = m
	l.mu.Unlock()
	return m, l.LoadCost, nil
}

// Register binds every function of the module into the registry as a
// dynamic UDF named "module.fn". Re-registering after ForceReload
// replaces the bindings.
func (l *Loader) Register(reg *udf.Registry, m *Module) error {
	for name, fd := range m.Funcs {
		fd := fd
		mod := m
		fn := func(args []expr.Value) (expr.Value, error) {
			in := &interp{mod: mod}
			return in.invoke(fd, args)
		}
		if err := reg.RegisterDynamic(m.Name, name, fn, nil); err != nil {
			return fmt.Errorf("script: registering %s.%s: %w", m.Name, name, err)
		}
	}
	return nil
}

// LoadAndRegister is the common path: Load (cached) then Register.
func (l *Loader) LoadAndRegister(reg *udf.Registry, name, src string) (float64, error) {
	m, cost, err := l.Load(name, src)
	if err != nil {
		return 0, err
	}
	return cost, l.Register(reg, m)
}

// ReloadAndRegister is the "special function that forces IDS to reload
// the module" from the paper.
func (l *Loader) ReloadAndRegister(reg *udf.Registry, name, src string) (float64, error) {
	m, cost, err := l.ForceReload(name, src)
	if err != nil {
		return 0, err
	}
	reg.UnloadModule(name)
	return cost, l.Register(reg, m)
}
