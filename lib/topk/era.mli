(** The Exhaustive Retrieval Algorithm (paper Figure 2).

    ERA scans the posting lists of the query terms in global position
    order while tracking, for every query sid, the current candidate
    element of that extent; term occurrences falling inside the current
    element accumulate in a term-frequency matrix whose rows are flushed
    when the scan passes the element's end. It needs only the base
    [Elements] / [PostingLists] tables, computes {e all} answers, and is
    also how RPLs and ERPLs get built. *)

type result = {
  element : Trex_invindex.Types.element;
  tf : int array;  (** term frequencies, indexed like the query terms *)
}

type run_stats = {
  positions_scanned : int;  (** posting occurrences consumed *)
  iterator_seeks : int;  (** [nextElementAfter] B+tree searches *)
  elements_emitted : int;
  degraded : bool;
      (** the guard expired mid-scan and [result list] covers only a
          prefix of the position space *)
}

val run :
  ?guard:Trex_resilience.Guard.t ->
  Trex_invindex.Index.t ->
  sids:int list ->
  terms:string list ->
  result list * run_stats
(** Elements (in flush order) of the given extents containing at least
    one of the given (normalized) terms, with their term frequencies.
    Duplicate sids are ignored; empty [sids] or [terms] give [].
    [guard] is ticked once per posting position; on expiry the scan
    stops and returns the elements emitted so far, [degraded]. *)

val score_results :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  terms:string list ->
  result list ->
  Answer.t
(** Turn tf vectors into combined relevance scores (sum over terms) and
    sort into a ranked answer list. Reads each term's df
    ({!Trex_invindex.Index.term_df}) once per call. *)

val per_term_scores :
  Trex_invindex.Index.t ->
  scoring:Trex_scoring.Scorer.config ->
  terms:string list ->
  result list ->
  (string * (Trex_invindex.Types.element * float) list) list
(** Per-term scored entries — the raw material of RPLs/ERPLs; entries
    with [tf = 0] for a term are omitted from that term's list. Reads
    each term's df once per call. *)
