package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Counts and clocks of one executed query. Virtual figures come from
  * `SearchResult.stats` in process; for the DataSourceV2 they come from the
  * store calls, with the document batches of the parallel scan tasks
  * counted as one step that costs as much as the slowest of them.
  */
final case class QStat(
    query: Query,
    startNs: Long,
    endNs: Long,
    calls: Vector[Call],
    candidates: Long,
    fetched: Long,
    kept: Long,
    returned: Long,
    virtualMs: Double,
    waitMs: Double,
    downloadMs: Double,
    roundTrips: Int,
    requests: Long,
    bytes: Long,
    allocBytes: Long,
) {
  def durNs: Long = endNs - startNs
  def reads: Vector[Call] = calls.filterNot(_.put)
}

object QStat {
  def of(q: Query, o: Outcome, t0: Long, t1: Long, calls: Vector[Call], alloc: Long): QStat = {
    val reads = calls.filterNot(_.put)
    val requests = reads.map(_.ranges.toLong).sum
    o match {
      case InProcess(r) =>
        QStat(q, t0, t1, calls, r.candidates, r.fetched, r.fetched - r.falsePositives, r.docs.size,
              r.stats.totalMs, r.stats.waitMs, r.stats.downloadMs, r.stats.roundTripSteps,
              requests, r.stats.bytes, alloc)
      case Rows(rows) =>
        val (docs, other) = reads.partition(_.kind == BlobKind.Docs)
        val steps = other ++ (if (docs.isEmpty) Nil else Seq(docs.maxBy(_.virtualMs)))
        val fetched = docs.map(_.ranges.toLong).sum
        QStat(q, t0, t1, calls, fetched, fetched, rows.length, rows.length,
              steps.map(_.virtualMs).sum, steps.map(_.waitMs).sum, steps.map(_.downloadMs).sum,
              steps.size, requests, reads.map(_.bytes).sum, alloc)
    }
  }
}

/** A closed-loop client: one thread, the next query only after the last
  * one returned and was checked. The clock runs only while a query runs.
  */
final class Client(spark: SparkSession, setup: Setup, ex: ExactIndex, rec: Recorder,
                   deadlineNs: Long) {
  var attempted = 0L
  var failed = 0L
  val failures: ArrayBuffer[String] = ArrayBuffer.empty
  var truncated = false

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocated(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  def runOne(q: Query, countAlloc: Boolean): Option[QStat] = {
    rec.drain()
    val a0 = if (countAlloc) allocated() else 0L
    val t0 = System.nanoTime()
    val out = try Right(Workloads.execute(spark, setup, q)) catch { case NonFatal(e) => Left(e) }
    val t1 = System.nanoTime()
    val a1 = if (countAlloc) allocated() else 0L
    val calls = rec.drain()
    attempted += 1
    out match {
      case Left(e) =>
        fail(s"$q threw $e")
        None
      case Right(o) =>
        Workloads.check(ex, q, o).foreach(err => fail(s"$q: $err"))
        Some(QStat.of(q, o, t0, t1, calls, a1 - a0))
    }
  }

  private def fail(msg: String): Unit = {
    failed += 1
    if (failures.size < 10) failures += msg
  }

  /** Run the pass from its start, cyclically, until `seconds` of query time. */
  def warmup(pass: IndexedSeq[Query], seconds: Double): Unit = {
    var busy = 0L
    var i = 0
    while (busy < seconds * 1e9 && System.nanoTime() < deadlineNs) {
      runOne(pass(i % pass.size), countAlloc = false).foreach(s => busy += s.durNs)
      i += 1
    }
  }

  /** Whole passes until `seconds` of query time is spent and at least
    * [[Client.MinPasses]] passes ran.
    */
  def window(pass: IndexedSeq[Query], seconds: Double, countAlloc: Boolean): Window = {
    val passes = Vector.newBuilder[Vector[Option[QStat]]]
    var n = 0
    var busy = 0L
    while ((n < Client.MinPasses || busy < seconds * 1e9) && !truncated) {
      val one = Vector.newBuilder[Option[QStat]]
      val it = pass.iterator
      while (it.hasNext && !truncated) {
        if (System.nanoTime() > deadlineNs) truncated = true
        else {
          val s = runOne(it.next(), countAlloc)
          s.foreach(busy += _.durNs)
          one += s
        }
      }
      passes += one.result()
      n += 1
    }
    Window(passes.result())
  }
}

object Client {
  /** A query's latency is its median over this many passes or more, so a
    * burst of load from outside the benchmark that slows one pass does not
    * move the result.
    */
  val MinPasses = 3
}

/** The passes a window measured, position by position (`None` where the
  * query threw).
  */
final case class Window(passes: Vector[Vector[Option[QStat]]]) {
  def all: Vector[QStat] = passes.flatMap(_.flatten)

  /** The first pass: its counts repeat exactly for a seed. */
  def first: Vector[QStat] = passes.headOption.map(_.flatten).getOrElse(Vector.empty)

  /** Each query's median latency over the passes, in ms. */
  def queryLatencyMs: Vector[Double] = {
    val n = passes.map(_.size).maxOption.getOrElse(0)
    (0 until n).flatMap { i =>
      val xs = passes.flatMap(_.lift(i).flatten).map(_.durNs / 1e6)
      if (xs.isEmpty) None else Some(Measure.median(xs))
    }.toVector
  }

  /** Closed-loop throughput: one over the mean of the per-query median latencies. */
  def qps: Double = {
    val l = queryLatencyMs
    if (l.isEmpty) 0.0 else 1000.0 / Measure.mean(l)
  }

  /** Raw throughput of each pass, as a record of the spread inside a run. */
  def passQps: Seq[Double] =
    passes.map(_.flatten).map(p => p.size / math.max(1e-9, p.map(_.durNs).sum / 1e9))
}

/** Task and stage counts of the Spark jobs the queries launch. */
final class SparkCounters extends SparkListener {
  val jobsStarted = new AtomicInteger
  val jobsEnded = new AtomicInteger
  val stageTasks = new AtomicLong
  val tasks = new AtomicLong
  val executorRunMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobsStarted.incrementAndGet()
  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    stageTasks.addAndGet(e.stageInfo.numTasks.toLong)
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) executorRunMs.addAndGet(e.taskMetrics.executorRunTime)
  }

  /** Wait (at most 10 s) until the listener bus has delivered every event. */
  def settle(): Unit = {
    val until = System.nanoTime() + 10000000000L
    var last = -1L
    while (System.nanoTime() < until) {
      val now = tasks.get() + jobsEnded.get() * 1000003L
      if (jobsStarted.get() == jobsEnded.get() && now == last) return
      last = now
      Thread.sleep(50)
    }
  }
}

object Measure {

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Nearest-rank percentile, p in (0, 1]; 0 for an empty sample. */
  def pct(xs: Seq[Double], p: Double): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.size).toInt - 1))
  }

  /** The highest percentile, up to the 99th, with at least ten samples beyond it. */
  def tailP(n: Int): Double = math.max(0.5, math.min(0.99, 1.0 - 10.0 / n))

  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  def heapUsedMb(): Double = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / 1e6
  }

  /** Length of [from, to) that the calls' intervals cover (calls may overlap). */
  def covered(calls: Seq[Call], from: Long, to: Long): Long = {
    val iv = calls.map(c => (math.max(c.startNs, from), math.min(c.endNs, to)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    iv.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else if (b > curB) curB = b
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** Self time before the first document batch (hashing, decode, intersection)
    * and from it on (UTF-8 decode, exact filter), store calls excluded, in µs.
    */
  def selfTimesUs(s: QStat): (Double, Option[Double]) = {
    val reads = s.reads
    val firstDoc = reads.filter(_.kind == BlobKind.Docs).map(_.startNs).minOption
    val cut = firstDoc.getOrElse(s.endNs)
    val lookup = (cut - s.startNs) - covered(reads, s.startNs, cut)
    val filter = firstDoc.map(fd => ((s.endNs - fd) - covered(reads, fd, s.endNs)) / 1e3)
    (lookup / 1e3, filter)
  }
}
