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
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	return &Loader{cache: map[string]*Module{}}
}

// Load returns the named module, parsing src only on the first call.
func (l *Loader) Load(name, src string) (*Module, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.cache[name]; ok {
		return m, nil
	}
	m, err := ParseModule(name, src)
	if err != nil {
		return nil, err
	}
	l.cache[name] = m
	return m, nil
}

// ForceReload re-parses src and replaces the cached module, returning
// the new module.
func (l *Loader) ForceReload(name, src string) (*Module, error) {
	m, err := ParseModule(name, src)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.cache[name] = m
	l.mu.Unlock()
	return m, nil
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
func (l *Loader) LoadAndRegister(reg *udf.Registry, name, src string) error {
	m, err := l.Load(name, src)
	if err != nil {
		return err
	}
	return l.Register(reg, m)
}

// ReloadAndRegister is the "special function that forces IDS to reload
// the module" from the paper.
func (l *Loader) ReloadAndRegister(reg *udf.Registry, name, src string) error {
	m, err := l.ForceReload(name, src)
	if err != nil {
		return err
	}
	reg.UnloadModule(name)
	return l.Register(reg, m)
}
