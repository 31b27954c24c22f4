package repro.par

import java.util.concurrent.atomic.AtomicLong
import repro.SparkSpec

class ParSpec extends SparkSpec {

  test("forRange visits every index exactly once") {
    val hits = new java.util.concurrent.atomic.AtomicIntegerArray(10000)
    Par.forRange(0, 10000)(i => hits.incrementAndGet(i))
    for (i <- 0 until 10000) assert(hits.get(i) === 1)
  }

  test("forRange handles empty and tiny ranges") {
    var c = 0
    Par.forRange(5, 5)(_ => c += 1)
    assert(c === 0)
    Par.forRange(0, 1)(_ => c += 1)
    assert(c === 1)
  }

  test("forBlocked covers the range with disjoint blocks") {
    val seen = new java.util.concurrent.atomic.AtomicIntegerArray(5000)
    Par.forBlocked(0, 5000, grain = 7) { (lo, hi) =>
      var i = lo
      while (i < hi) { seen.incrementAndGet(i); i += 1 }
    }
    for (i <- 0 until 5000) assert(seen.get(i) === 1)
  }

  test("withThreads(1) executes sequentially but correctly") {
    val acc = new AtomicLong(0)
    Par.withThreads(1) {
      assert(Par.parallelism === 1)
      Par.forRange(0, 1000)(i => acc.addAndGet(i.toLong))
    }
    assert(acc.get() === 499500L)
  }

  test("withThreads restores the previous pool") {
    val before = Par.pool
    Par.withThreads(2) { assert(Par.parallelism === 2) }
    assert(Par.pool eq before)
  }

  test("withThreads rejects non-positive counts") {
    intercept[IllegalArgumentException](Par.withThreads(0) {})
  }

  test("nested parallel loops complete") {
    val acc = new AtomicLong(0)
    Par.forRange(0, 64, grain = 1) { _ =>
      Par.forRange(0, 64, grain = 1)(_ => acc.incrementAndGet())
    }
    assert(acc.get() === 64L * 64L)
  }
}
