package repro.perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.corpus.LogCorpusGen

import Measure._

/** The benchmark's JVM entry point; `perfbench/run.py` builds and starts it.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *   --selftest --out <dir>
  *
  * One run: start Spark, build the workload's corpus and index
  * [[Main.Setups]] times in fresh buckets (the median is `setup_s`), build the
  * exact answers from the corpus frame, warm up, then measure with a
  * closed-loop client. With `--trace 0` it prints the end-to-end metrics;
  * with `--trace 1` it measures an untraced and a traced window of half the
  * time each and prints the per-layer metrics. The last line of stdout is
  * the result object.
  */
object Main {

  /** Set-ups per run; the first one also warms the JVM and Spark. */
  val Setups = 3
  /** Query time spent before measuring, from the start of the pass. */
  val WarmupSeconds = 5.0
  /** Queries stop after this much wall time; a run must end within 180 s. */
  val DeadlineSeconds = 150.0

  final case class Metric(name: String, value: Double, unit: String)

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val out = new File(opts.getOrElse("out", ".bench_build/perfbench/out"))
    out.mkdirs()
    val spark = session(out)
    val code =
      try {
        if (opts.contains("selftest")) SelfTest.run(spark)
        else {
          val wl = Workloads.byName(opts("workload")).getOrElse(
            throw new IllegalArgumentException(s"unknown workload ${opts("workload")}; " +
              s"known: ${Workloads.all.map(_.name).mkString(", ")}"))
          run(spark, wl, opts("seed").toLong, opts("seconds").toDouble, opts("trace") == "1", out)
        }
      } finally spark.stop()
    sys.exit(code)
  }

  private def parse(args: Array[String]): Map[String, String] = {
    val m = mutable.Map.empty[String, String]
    var i = 0
    while (i < args.length) {
      val k = args(i).stripPrefix("--")
      if (k == "selftest") { m(k) = "1"; i += 1 }
      else {
        require(i + 1 < args.length, s"missing value for ${args(i)}")
        m(k) = args(i + 1); i += 2
      }
    }
    if (!m.contains("selftest"))
      Seq("workload", "seed", "seconds", "trace").foreach(k => require(m.contains(k), s"missing --$k"))
    m.toMap
  }

  def session(out: File): SparkSession = {
    val tmp = new File(out, "tmp").getAbsolutePath
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(tmp, "warehouse").getAbsolutePath)
      // A fixed, small plan shape for 30k-40k document corpora on a few cores.
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
  }

  def run(spark: SparkSession, wl: WorkloadDef, seed: Long, seconds: Double, trace: Boolean,
          out: File): Int = {
    val t0 = System.nanoTime()
    val deadline = t0 + (DeadlineSeconds * 1e9).toLong
    val rec = new Recorder
    rec.timing = trace

    val setups = (0 until Setups).map { i =>
      val s = Setup.run(spark, LogCorpusGen.byName(wl.corpus), s"perfbench-${wl.name}-$i", rec)
      if (i < Setups - 1) s.close()
      s
    }
    val setup = setups.last
    val heapMb = heapUsedMb()
    val tOracle = System.nanoTime()
    val ex = ExactIndex.fromCorpus(setup.docs)
    val pass = Workloads.pass(wl, ex, seed)
    val client = new Client(spark, setup, ex, rec, deadline)

    rec.timing = false
    val tWarm = System.nanoTime()
    client.warmup(pass, WarmupSeconds)
    val tWindow = System.nanoTime()
    val plain = client.window(pass, if (trace) seconds / 2 else seconds, countAlloc = false)

    val metrics =
      if (!trace) endToEnd(setups, plain, heapMb)
      else {
        val counters = new SparkCounters
        spark.sparkContext.addSparkListener(counters)
        rec.timing = true
        val gc0 = gcMs()
        val traced = client.window(pass, seconds / 2, countAlloc = true)
        val gc1 = gcMs()
        rec.timing = false
        counters.settle()
        spark.sparkContext.removeSparkListener(counters)
        writeSpans(new File(out, s"trace-${wl.name}-seed$seed.jsonl"), setups, traced.all)
        perLayer(setups, traced.all, counters, gc1 - gc0, plain.qps, traced.qps)
      }

    val env = Seq(
      "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "trace" -> (if (trace) 1 else 0),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "heap_max_mb" -> Runtime.getRuntime.maxMemory() / 1000000,
      "spark_master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "setups" -> Setups, "pass_queries" -> pass.size,
      "window_passes" -> plain.passes.size, "latency_samples" -> plain.queryLatencyMs.size,
      "pass_qps" -> plain.passQps.map(q => f"$q%.1f").mkString(" "),
      "latency_tail_percentile" -> 100 * tailP(pass.size),
      "cache_state" -> "fresh JVM; own buckets and Searcher; no engine caches; warmed up",
      "truncated" -> client.truncated,
      "wall_s" -> Seq("setups" -> (tOracle - t0), "oracle" -> (tWarm - tOracle),
                      "warmup" -> (tWindow - tWarm), "windows" -> (System.nanoTime() - tWindow))
        .map { case (k, v) => f"$k ${v / 1e9}%.1f" }.mkString(", "))
    println("env " + json(env))
    client.failures.foreach(f => println(s"FAILED $f"))
    println(f"failed_frac = ${client.failed.toDouble / math.max(1L, client.attempted)} ratio")
    metrics.foreach(m => println(s"${m.name} = ${m.value} ${m.unit}"))
    println(result(client.failed == 0 && !client.truncated, client.attempted, client.failed, metrics))
    0
  }

  def endToEnd(setups: Seq[Setup], w: Window, heapMb: Double): Seq[Metric] = {
    val lat = w.queryLatencyMs
    val first = w.first
    val virt = first.map(_.virtualMs)
    val s = setups.last
    Seq(
      Metric("setup_s", median(setups.map(_.totalS)), "s"),
      Metric("qps", w.qps, "1/s"),
      Metric("latency_p50_ms", pct(lat, 0.5), "ms"),
      Metric("latency_p99_ms", pct(lat, tailP(lat.size)), "ms"),
      Metric("virtual_mean_ms", mean(virt), "ms"),
      Metric("virtual_p99_ms", pct(virt, tailP(virt.size)), "ms"),
      Metric("round_trips_per_query", mean(first.map(_.roundTrips.toDouble)), "count"),
      Metric("requests_per_query", mean(first.map(_.requests.toDouble)), "count"),
      Metric("bytes_per_query", mean(first.map(_.bytes.toDouble)), "bytes"),
      Metric("index_bytes_per_corpus_byte", s.built.indexBytes.toDouble / s.corpusBytes, "ratio"),
      Metric("heap_mb", heapMb, "MB"),
    )
  }

  def perLayer(setups: Seq[Setup], tr: Vector[QStat], sc: SparkCounters, gcMsDelta: Long,
               plainQps: Double, tracedQps: Double): Seq[Metric] = {
    val n = math.max(1, tr.size).toDouble
    val reads = tr.flatMap(_.reads)
    def us(kind: Int) = reads.filter(_.kind == kind).map(_.durNs / 1e3)
    val supers = us(BlobKind.Superposts)
    val docCalls = reads.filter(_.kind == BlobKind.Docs)
    val docUs = docCalls.map(_.durNs / 1e3)
    val self = tr.map(selfTimesUs)
    val topk = tr.filter(_.query.isInstanceOf[TopK])
    val fallbacks = topk.count(_.reads.count(_.kind == BlobKind.Docs) > 1)
    val s = setups.last
    val fetched = tr.map(_.fetched).sum
    val busyMs = tr.map(_.durNs).sum / 1e6
    Seq(
      Metric("cloudstore.superpost_batch_us_p50", pct(supers, 0.5), "us"),
      Metric("cloudstore.superpost_batch_us_p99", pct(supers, tailP(supers.size)), "us"),
      Metric("cloudstore.doc_batch_us_p50", pct(docUs, 0.5), "us"),
      Metric("cloudstore.doc_batch_us_p99", pct(docUs, tailP(docUs.size)), "us"),
      Metric("cloudstore.ranges_per_doc_batch", mean(docCalls.map(_.ranges.toDouble)), "count"),
      Metric("cloudstore.us_per_range", docUs.sum / math.max(1L, docCalls.map(_.ranges.toLong).sum), "us"),
      Metric("cloudstore.wait_share", tr.map(_.waitMs).sum / math.max(1e-9, tr.map(_.virtualMs).sum), "ratio"),
      Metric("cloudstore.download_ms", mean(tr.map(_.downloadMs)), "ms"),
      Metric("cloudstore.header_gets_per_query", reads.count(_.kind == BlobKind.Header) / n, "count"),
      Metric("cloudstore.put_count", s.puts.size.toDouble, "count"),
      Metric("cloudstore.put_bytes", s.puts.map(_.bytes).sum.toDouble, "bytes"),
      Metric("core.lookup_self_us_p50", pct(self.map(_._1), 0.5), "us"),
      Metric("core.filter_self_us_p50", pct(self.flatMap(_._2), 0.5), "us"),
      Metric("core.candidates_per_query", tr.map(_.candidates).sum / n, "count"),
      Metric("core.false_positives_per_query", (fetched - tr.map(_.kept).sum) / n, "count"),
      Metric("core.filter_yield", tr.map(_.kept).sum.toDouble / math.max(1L, fetched), "ratio"),
      Metric("core.topk_fallback_frac", if (topk.isEmpty) 0.0 else fallbacks.toDouble / topk.size, "ratio"),
      Metric("core.searcher_init_ms", median(setups.map(_.searcherInitMs)), "ms"),
      Metric("core.header_bytes", s.store.size(s.built.headerBlob).toDouble, "bytes"),
      Metric("core.layers", s.built.layers.toDouble, "count"),
      Metric("core.build_s", median(setups.map(_.buildS)), "s"),
      Metric("corpus.generate_write_s", median(setups.map(_.generateWriteS)), "s"),
      Metric("corpus.profile_s", median(setups.map(_.profileS)), "s"),
      Metric("datasource.partitions_per_query", sc.stageTasks.get() / n, "count"),
      Metric("datasource.rows_per_query", tr.map(_.returned).sum / n, "count"),
      Metric("spark.tasks_per_query", sc.tasks.get() / n, "count"),
      Metric("spark.executor_run_share", sc.executorRunMs.get() / math.max(1e-9, busyMs), "ratio"),
      Metric("jvm.gc_ms_per_query", gcMsDelta / n, "ms"),
      Metric("jvm.alloc_mb_per_query", tr.map(_.allocBytes).sum / 1e6 / n, "MB"),
      Metric("trace_overhead_frac", 1.0 - tracedQps / plainQps, "ratio"),
    )
  }

  /** Spans, kept in memory during the run and written once at the end. */
  private def writeSpans(f: File, setups: Seq[Setup], tr: Vector[QStat]): Unit = {
    val w = new PrintWriter(f, "UTF-8")
    try {
      setups.zipWithIndex.foreach { case (s, i) =>
        w.println(json(Seq("setup" -> i, "corpus.generate_write_s" -> s.generateWriteS,
          "corpus.profile_s" -> s.profileS, "core.build_s" -> s.buildS,
          "core.searcher_init_ms" -> s.searcherInitMs, "puts" -> s.puts.size)))
      }
      tr.zipWithIndex.foreach { case (q, i) =>
        val name = q.query match {
          case _: Keywords => "datasource.collect"
          case _: Bool     => "core.searchBoolean"
          case _           => "core.search"
        }
        val (lookup, filter) = selfTimesUs(q)
        w.println(json(Seq("span" -> s"q$i", "name" -> name, "query" -> q.query.toString,
          "start_ns" -> q.startNs, "end_ns" -> q.endNs, "lookup_self_us" -> lookup,
          "filter_self_us" -> filter.getOrElse(0.0), "candidates" -> q.candidates,
          "kept" -> q.kept, "virtual_ms" -> q.virtualMs)))
        q.reads.zipWithIndex.foreach { case (c, j) =>
          w.println(json(Seq("span" -> s"q$i.$j", "parent" -> s"q$i",
            "name" -> Seq("cloudstore.header", "cloudstore.superposts", "cloudstore.docs",
                          "cloudstore.other")(c.kind),
            "start_ns" -> c.startNs, "end_ns" -> c.endNs, "ranges" -> c.ranges,
            "bytes" -> c.bytes, "wait_ms" -> c.waitMs, "download_ms" -> c.downloadMs)))
        }
      }
    } finally w.close()
  }

  def result(correct: Boolean, attempted: Long, failed: Long, ms: Seq[Metric]): String = {
    val m = ms.map(x => s"${quote(x.name)}: {\"value\": ${num(x.value)}, \"unit\": ${quote(x.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${m.mkString(", ")}}}"""
  }

  private def num(d: Double): String = if (d.isNaN || d.isInfinite) "0" else d.toString

  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def json(kv: Seq[(String, Any)]): String =
    kv.map { case (k, v) =>
      val enc = v match {
        case d: Double  => num(d)
        case b: Boolean => b.toString
        case n: Number  => n.toString
        case x          => quote(x.toString)
      }
      s"${quote(k)}: $enc"
    }.mkString("{", ", ", "}")
}
