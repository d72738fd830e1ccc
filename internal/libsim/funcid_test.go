package libsim

import (
	"reflect"
	"testing"
)

// TestFuncIDsMatchNameDispatch: every simulated function resolves to an
// ID whose handler and arity are the ones name dispatch builds, and a
// call by ID behaves exactly like the call by name, arity error included.
func TestFuncIDsMatchNameDispatch(t *testing.T) {
	byName := buildCallTable()
	if len(funcs) != len(byName) {
		t.Fatalf("%d simulated functions have IDs, want %d", len(funcs), len(byName))
	}
	for name, h := range byName {
		id := Lookup(name)
		if uint(id) >= uint(len(funcs)) || funcs[id].name != name || !Known(name) {
			t.Errorf("%s: ID %d is not its simulated function (known %v)", name, id, Known(name))
			continue
		}
		if got := funcs[id]; got.args != h.args ||
			reflect.ValueOf(got.fn).Pointer() != reflect.ValueOf(h.fn).Pointer() {
			t.Errorf("%s: ID %d holds a different handler (args %d, want %d)", name, id, got.args, h.args)
		}
		if Declare(name) != id {
			t.Errorf("%s: Declare moved a simulated function's ID", name)
		}
		if h.args < 0 {
			continue
		}
		bad := make([]int64, h.args+1)
		_, errName := newOS(t).Call(name, bad)
		_, errID := newOS(t).CallFunc(id, name, bad)
		if errName == nil || errID == nil || errName.Error() != errID.Error() {
			t.Errorf("%s: arity error by name %v, by ID %v", name, errName, errID)
		}
	}
}

// TestCallFuncNameIsAuthoritative: an ID that does not name the called
// function (stale, missing or declared-only) is resolved again from the
// name, and an unknown name fails with the same error however it is
// called.
func TestCallFuncNameIsAuthoritative(t *testing.T) {
	o := newOS(t)
	want, err := o.Call("getpid", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []FuncID{Lookup("malloc"), NoFunc, FuncID(len(funcs) + 1000)} {
		if got, err := o.CallFunc(id, "getpid", nil); err != nil || got != want {
			t.Errorf("CallFunc(%d, getpid) = %d, %v; want %d", id, got, err, want)
		}
	}

	const unknown = `libsim: unknown library function "no_such_call"`
	declared := Declare("declared_only_call")
	if uint(declared) < uint(len(funcs)) || Known("declared_only_call") || Lookup("declared_only_call") != declared {
		t.Fatalf("declared name got ID %d (simulated below %d)", declared, len(funcs))
	}
	for _, c := range []struct {
		id   FuncID
		name string
		want string
	}{
		{NoFunc, "no_such_call", unknown},
		{Lookup("malloc"), "no_such_call", unknown},
		{declared, "declared_only_call", `libsim: unknown library function "declared_only_call"`},
	} {
		_, errName := o.Call(c.name, nil)
		_, errID := o.CallFunc(c.id, c.name, nil)
		if errName == nil || errID == nil || errName.Error() != c.want || errID.Error() != c.want {
			t.Errorf("%s: by name %v, by ID %v; want %q", c.name, errName, errID, c.want)
		}
	}
}
