package repro.core

import java.util.concurrent.ConcurrentHashMap

import scala.jdk.CollectionConverters._

import repro.cloudstore.{CloudStorage, FetchLedger, FetchStats}
import repro.corpus.Doc

/** One query's outcome plus accuracy accounting. */
final case class SearchResult(docs: Vector[Doc], candidates: Int, fetched: Int,
                              falsePositives: Int, stats: FetchStats)

/** AIRPHANT Searcher (§III-C0c): the lightweight query-side component.
  *
  * Initialization downloads the header blob once (MHT seeds + bin
  * pointers + string tables) and keeps it in memory. Each query then
  * needs exactly:
  *   1. L hash evaluations (no I/O) to get superpost pointers,
  *   2. ONE concurrent batch of range reads for the L superposts,
  *   3. an intersection (no I/O),
  *   4. one concurrent batch of document range reads, and
  *   5. an exact-match filter that removes all false positives.
  *
  * With `waitLayers < mht.layers` (built-in replication, §IV-G), step 2
  * issues all L+ requests but only waits for the fastest `waitLayers`.
  */
final class Searcher(store: CloudStorage, headerBlob: String, waitLayers: Option[Int] = None) {

  private val initLedger = new FetchLedger
  /** The in-memory MHT, loaded once per corpus. */
  val mht: Mht = Mht.load(store, headerBlob, initLedger)

  /** Network cost of initialization (one request; ~2 MB at the paper's B). */
  def initStats: FetchStats = initLedger.stats

  private val k: Int = waitLayers.getOrElse(mht.layers)
  require(k >= 1 && k <= mht.layers, s"waitLayers must be in [1, ${mht.layers}]")

  /** The reads one word needs: its common-word exact postings list, its L
    * superposts, or nothing when some layer's bin is empty, which proves
    * the word is absent from the corpus.
    */
  private def plan(word: String): IndexedSeq[BinPointer] =
    mht.commonWords.get(word) match {
      case Some(ptr) => Vector(ptr)
      case None      => mht.pointersFor(word).getOrElse(Vector.empty)
    }

  /** A word's final postings list from the lists its plan fetched: the
    * exact list itself, or the superposts' intersection.
    */
  private def resolve(lists: Seq[Array[Byte]]): Vector[Posting] =
    Posting.intersectSorted(lists.map(PostingsCodec.decode))

  /** Term-index lookup (the paper's Fig. 14 observable): resolve the final
    * postings list for `word` with one concurrent batch. A replicated
    * sketch waits for the fastest `waitLayers` of the word's superposts.
    */
  def lookup(word: String, ledger: FetchLedger): Vector[Posting] = {
    val reqs = plan(word).map(mht.rangeReq)
    if (reqs.isEmpty) Vector.empty
    else if (reqs.size > k) resolve(store.getRangesKofN(reqs, k, ledger).map(_._2))
    else resolve(store.getRangesParallel(reqs, ledger))
  }

  /** End-to-end search: lookup → fetch documents → exact filter.
    * `topK = Some(K)` enables the sampled fetch of §IV-D with `f0`/`delta`
    * taken from the given config.
    */
  def search(word: String, topK: Option[Int] = None,
             config: IoUConfig = IoUConfig()): SearchResult =
    DocFetcher.search(store, mht.docBlobs, DocFetcher.wordPredicate(word), topK,
                      config.f0, config.topKDelta)(lookup(word, _))

  /** Boolean query (§IV-F): Q(∨_i ∧_j w_ij) = ∪_i ∩_j Q(w_ij). All term
    * superposts across the whole expression are fetched in ONE concurrent
    * batch; set algebra and the final exact filter follow.
    */
  def searchBoolean(query: BoolQuery, config: IoUConfig = IoUConfig()): SearchResult =
    DocFetcher.search(store, mht.docBlobs, BoolQuery.matches(query, _), None,
                      config.f0, config.topKDelta) { ledger =>
      BoolQuery.candidates(query, lookupBatch(BoolQuery.terms(query).toSeq.sorted, ledger))
    }

  /** Resolve several words' final postings lists with a single batch of
    * concurrent superpost reads (every read awaited).
    */
  def lookupBatch(words: Seq[String], ledger: FetchLedger): Map[String, Vector[Posting]] = {
    val plans = words.map(plan)
    val fetched = store.getRangesParallel(plans.flatten.map(mht.rangeReq), ledger).iterator
    words.zip(plans).map { case (w, ptrs) => w -> resolve(ptrs.map(_ => fetched.next())) }.toMap
  }
}

object Searcher {

  private final case class Entry(store: CloudStorage, searcher: Searcher)

  private val cache = new ConcurrentHashMap[(String, String), Entry]()
  CloudStorage.onChange(bucket => cache.keySet.removeIf(_._1 == bucket))

  /** The JVM's Searcher for `headerBlob` in the registered `bucket`: the
    * header is downloaded and parsed on first use only, as the paper's
    * long-lived Searcher does (§III-C0c). An entry serves only the store
    * instance it was loaded from, so re-registering or unregistering the
    * bucket drops it, and [[Builder.build]] evicts it when it rewrites the
    * header.
    */
  def shared(bucket: String, headerBlob: String): Searcher = {
    val store = CloudStorage.named(bucket)
    cache.compute((bucket, headerBlob), (_, e) =>
      if (e != null && (e.store eq store)) e else Entry(store, new Searcher(store, headerBlob))
    ).searcher
  }

  /** Forget the shared Searcher of (bucket, header), e.g. after a rebuild. */
  def evict(bucket: String, headerBlob: String): Unit = cache.remove((bucket, headerBlob))

  /** Stores the shared Searchers currently hold (for tests). */
  private[repro] def sharedStores: Seq[CloudStorage] = cache.values.asScala.map(_.store).toSeq
}
