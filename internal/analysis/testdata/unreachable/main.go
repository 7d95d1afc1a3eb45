package main

import (
	"fmt"
	"sort"
)

// shape is a module interface: area is live on every live implementation
// although nothing calls it on a square directly.
type shape interface{ area() float64 }

type square struct{ side float64 }

func (s square) area() float64 { return s.side * s.side }

// String is live through fmt.Stringer, because square is live.
func (s square) String() string { return fmt.Sprint(s.side) }

// scaleBy is a method of a live type that no interface declares and nothing
// calls.
func (s square) scaleBy(k float64) square { return square{s.side * k} } // want "unreachable: method square\.scaleBy is not reachable"

// byArea's methods are live through sort.Interface.
type byArea []shape

func (b byArea) Len() int           { return len(b) }
func (b byArea) Less(i, j int) bool { return b[i].area() < b[j].area() }
func (b byArea) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// registry's initializer runs at package init, so newRegistry is a root.
var registry = newRegistry()

func newRegistry() map[string]shape { return map[string]shape{} }

func init() { registry["unit"] = square{1} }

func main() {
	shapes := byArea{square{2}, square{1}}
	sort.Sort(shapes)
	fmt.Println(shapes[0])
}

func orphan() {} // want "unreachable: func orphan is not reachable"

// testOnly's one caller is in a _test.go file, which never counts.
func testOnly() int { return 1 } // want "unreachable: func testOnly"

const deadLimit = 3 // want "unreachable: const deadLimit"

var deadCount int // want "unreachable: var deadCount"

type deadType struct{} // want "unreachable: type deadType"
