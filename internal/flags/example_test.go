package flags_test

import (
	"fmt"

	"doacross/internal/flags"
)

// ExampleIterTable shows the execution-time dependency check of the paper's
// Figure 5: the inspector records which iteration writes each element, and
// the executor classifies every read against it.
func ExampleIterTable() {
	iter := flags.NewIterTable(8)
	// Inspector: iteration 3 writes element 6, iteration 5 writes element 2.
	iter.Record(6, 3)
	iter.Record(2, 5)

	classify := func(elem, reader int) {
		dep, writer := iter.Classify(elem, reader)
		if writer == flags.MaxInt {
			fmt.Printf("iteration %d reading element %d: %v (never written)\n", reader, elem, dep)
			return
		}
		fmt.Printf("iteration %d reading element %d: %v (writer %d)\n", reader, elem, dep, writer)
	}
	classify(6, 7) // written earlier -> wait, use new value
	classify(2, 5) // written by the same iteration -> use new value, no wait
	classify(2, 1) // written later -> anti-dependence, use old value
	classify(4, 2) // never written -> use old value
	// Output:
	// iteration 7 reading element 6: true (writer 3)
	// iteration 5 reading element 2: self (writer 5)
	// iteration 1 reading element 2: anti/none (writer 5)
	// iteration 2 reading element 4: anti/none (never written)
}

// ExampleReadyFlags_Advance shows the epoch protocol's O(1) reset of the
// ready array: instead of clearing every written flag in a postprocessing
// loop, the epoch is advanced.
func ExampleReadyFlags_Advance() {
	ready := flags.NewReadyFlags(4)
	ready.Set(1)
	fmt.Println("element 1 done:", ready.IsDone(1))
	ready.Advance() // next doacross loop: everything not-done again
	fmt.Println("element 1 done after Advance:", ready.IsDone(1))
	// Output:
	// element 1 done: true
	// element 1 done after Advance: false
}
