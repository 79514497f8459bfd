// Command app is the one binary of the reachability check's test module.
package main

import (
	"fmt"

	"tiny/internal/lib"
)

func main() {
	fmt.Println(lib.Live(), lib.T{}, lib.UseFields(lib.AppConfig{Set: 1}))
}
