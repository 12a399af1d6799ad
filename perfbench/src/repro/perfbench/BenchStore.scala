package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import repro.cloudstore.{CloudStorage, Cost, FetchLedger, RangeReq}

/** What a store call touched, classified by blob name (the names
  * `CorpusWriter` and `Builder` give their blobs).
  */
object BlobKind {
  val Header = 0
  val Superposts = 1
  val Docs = 2
  val Other = 3

  def of(blob: String): Int =
    if (blob.endsWith("/header")) Header
    else if (blob.contains("/superposts-")) Superposts
    else if (blob.contains("/docs-")) Docs
    else Other
}

/** One call into the store: a read of one blob, one range or one batch of
  * ranges, or a PUT. Reads carry the virtual network cost the store's model
  * charged for them; the clock fields are 0 unless the recorder is timing.
  */
final case class Call(kind: Int, put: Boolean, ranges: Int, bytes: Long,
                      waitMs: Double, downloadMs: Double, startNs: Long, endNs: Long) {
  def virtualMs: Double = waitMs + downloadMs
  def durNs: Long = endNs - startNs
}

/** Collects the calls made through every [[BenchStore]] that shares it.
  * Calls may come from Spark task threads (the DataSourceV2 readers), so
  * access is synchronized. `timing` switches the clocks on (traced run).
  */
final class Recorder {
  @volatile var timing: Boolean = false
  private val buf = ArrayBuffer.empty[Call]

  def now(): Long = if (timing) System.nanoTime() else 0L
  def record(c: Call): Unit = synchronized { buf += c }

  /** The calls recorded since the last drain. */
  def drain(): Vector[Call] = synchronized { val v = buf.toVector; buf.clear(); v }
}

/** Delegating [[CloudStorage]] that observes the program's store traffic
  * from outside: it counts requests and bytes, keeps the virtual cost of
  * each read, and, when the recorder is timing, the wall time of each call.
  *
  * Each read runs against a private ledger whose single step is then
  * recorded into the caller's ledger unchanged, so `SearchResult.stats`
  * reads exactly as it would without the wrapper.
  */
final class BenchStore(inner: CloudStorage, rec: Recorder) extends CloudStorage {

  override def put(name: String, bytes: Array[Byte]): Unit = {
    val t0 = rec.now()
    inner.put(name, bytes)
    rec.record(Call(BlobKind.of(name), put = true, 1, bytes.length.toLong, 0.0, 0.0, t0, rec.now()))
  }

  override def size(name: String): Long = inner.size(name)
  override def list(): Seq[String] = inner.list()
  override def totalBytes: Long = inner.totalBytes
  override def getNoCost(name: String): Array[Byte] = inner.getNoCost(name)

  override def get(name: String, ledger: FetchLedger): Array[Byte] =
    read(name, 1, ledger)(inner.get(name, _))

  override def getRange(req: RangeReq, ledger: FetchLedger): Array[Byte] =
    read(req.blob, 1, ledger)(inner.getRange(req, _))

  override def getRangesParallel(reqs: Seq[RangeReq], ledger: FetchLedger): Seq[Array[Byte]] =
    if (reqs.isEmpty) inner.getRangesParallel(reqs, ledger)
    else read(reqs.head.blob, reqs.size, ledger)(inner.getRangesParallel(reqs, _))

  override def getRangesKofN(reqs: Seq[RangeReq], k: Int,
                             ledger: FetchLedger): Seq[(Int, Array[Byte])] =
    read(reqs.head.blob, reqs.size, ledger)(inner.getRangesKofN(reqs, k, _))

  private def read[T](blob: String, ranges: Int, ledger: FetchLedger)(f: FetchLedger => T): T = {
    val own = new FetchLedger
    val t0 = rec.now()
    val out = f(own)
    val t1 = rec.now()
    val s = own.stats
    if (s.roundTripSteps > 0) ledger.record(Cost(s.waitMs, s.downloadMs, s.bytes))
    rec.record(Call(BlobKind.of(blob), put = false, ranges, s.bytes, s.waitMs, s.downloadMs, t0, t1))
    out
  }
}
