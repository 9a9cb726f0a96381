package sched_test

import (
	"fmt"

	"doacross/internal/sched"
)

// ExampleNewPositionSchedule shows the two static iteration-to-processor
// assignments the runtime supports: block (contiguous ranges) and cyclic
// (round robin). A position schedule has one level; worker w runs
// Items(0, w) in order.
func ExampleNewPositionSchedule() {
	perWorker := func(s *sched.LevelSchedule) [][]int32 {
		var lists [][]int32
		for w := 0; w < s.Workers(); w++ {
			lists = append(lists, s.Items(0, w))
		}
		return lists
	}
	fmt.Println("block: ", perWorker(sched.NewPositionSchedule(8, sched.Block, 3)))
	fmt.Println("cyclic:", perWorker(sched.NewPositionSchedule(8, sched.Cyclic, 3)))
	// Output:
	// block:  [[0 1 2] [3 4 5] [6 7]]
	// cyclic: [[0 3 6] [1 4 7] [2 5]]
}

// ExamplePool_ParallelFor runs the paper's fully parallel preprocessing
// pattern: a doall over the iteration space, split evenly over the workers.
func ExamplePool_ParallelFor() {
	pool := sched.NewPool(4)
	sum := make([]int, 10)
	pool.ParallelFor(10, func(i int) { sum[i] = i * i })
	fmt.Println(sum)
	// Output:
	// [0 1 4 9 16 25 36 49 64 81]
}
