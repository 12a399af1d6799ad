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

  /** Term-index lookup (the paper's Fig. 14 observable): resolve the final
    * postings list for `word` — common-word exact fetch, or the
    * batch-fetch-then-intersect of IoU Sketch.
    */
  def lookup(word: String, ledger: FetchLedger): Vector[Posting] = {
    mht.commonWords.get(word) match {
      case Some(ptr) =>
        val bytes = store.getRangesParallel(Seq(mht.rangeReq(ptr)), ledger)
        PostingsCodec.decode(bytes.head)
      case None =>
        mht.pointersFor(word) match {
          case None => Vector.empty // some layer's bin is empty: word not in corpus
          case Some(ptrs) =>
            val reqs = ptrs.map(mht.rangeReq)
            val superposts: Seq[Vector[Posting]] =
              if (k == ptrs.size) store.getRangesParallel(reqs, ledger).map(PostingsCodec.decode)
              else store.getRangesKofN(reqs, k, ledger).map { case (_, b) => PostingsCodec.decode(b) }
            Posting.intersectSorted(superposts.map(v => v: IndexedSeq[Posting]))
        }
    }
  }

  /** End-to-end search: lookup → fetch documents → exact filter.
    * `topK = Some(K)` enables the sampled fetch of §IV-D with `f0`/`delta`
    * taken from the given config.
    */
  def search(word: String, topK: Option[Int] = None,
             config: IoUConfig = IoUConfig()): SearchResult = {
    val ledger = new FetchLedger
    val candidates = lookup(word, ledger)
    val keep = DocFetcher.wordPredicate(word)
    val r = topK match {
      case Some(kk) => DocFetcher.fetchTopK(store, mht.docBlobs, candidates, keep,
                                            kk, config.f0, config.topKDelta, ledger)
      case None     => DocFetcher.fetchAndFilter(store, mht.docBlobs, candidates, keep, ledger)
    }
    SearchResult(r.docs, candidates.size, r.fetched, r.falsePositives, ledger.stats)
  }

  /** Boolean query (§IV-F): Q(∨_i ∧_j w_ij) = ∪_i ∩_j Q(w_ij). All term
    * superposts across the whole expression are fetched in ONE concurrent
    * batch; set algebra and the final exact filter follow.
    */
  def searchBoolean(query: BoolQuery, config: IoUConfig = IoUConfig()): SearchResult = {
    val ledger = new FetchLedger
    val terms = BoolQuery.terms(query).toSeq.sorted
    val perTerm: Map[String, Vector[Posting]] = lookupBatch(terms, ledger)
    val candidates = BoolQuery.candidates(query, perTerm)
    val keep: String => Boolean = t => BoolQuery.matches(query, t)
    val r = DocFetcher.fetchAndFilter(store, mht.docBlobs, candidates, keep, ledger)
    SearchResult(r.docs, candidates.size, r.fetched, r.falsePositives, ledger.stats)
  }

  /** Resolve several words' final postings lists with a single batch of
    * concurrent superpost reads.
    */
  def lookupBatch(words: Seq[String], ledger: FetchLedger): Map[String, Vector[Posting]] = {
    // Gather (word -> its superpost requests); one flat concurrent batch.
    val plans = words.map { w =>
      mht.commonWords.get(w) match {
        case Some(ptr) => (w, Vector(ptr), true)
        case None => mht.pointersFor(w) match {
          case None       => (w, Vector.empty[BinPointer], false)
          case Some(ptrs) => (w, ptrs.toVector, false)
        }
      }
    }
    val flat = plans.flatMap { case (_, ptrs, _) => ptrs }.map(mht.rangeReq)
    val fetched = store.getRangesParallel(flat, ledger).iterator
    plans.map { case (w, ptrs, isCommon) =>
      val lists = ptrs.map(_ => PostingsCodec.decode(fetched.next()))
      val finalList =
        if (ptrs.isEmpty) Vector.empty[Posting]
        else if (isCommon) lists.head
        else Posting.intersectSorted(lists.map(v => v: IndexedSeq[Posting]))
      w -> finalList
    }.toMap
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
