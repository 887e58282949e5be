module Stopclock = Trex_util.Stopclock
module Metrics = Trex_obs.Metrics
module Span = Trex_obs.Span
module Journal = Trex_obs.Journal
module Env = Trex_storage.Env
module Pager = Trex_storage.Pager
module Guard = Trex_resilience.Guard
module Retry = Trex_resilience.Retry

let m_degraded_runs = Metrics.counter "resilience.degraded_runs"
let m_fallbacks = Metrics.counter "resilience.fallbacks"
let m_node_reads = Metrics.counter "bptree.node_reads"

type method_ = Era_method | Ta_method | Ita_method | Merge_method

let method_to_string = function
  | Era_method -> "ERA"
  | Ta_method -> "TA"
  | Ita_method -> "ITA"
  | Merge_method -> "Merge"

let all_methods = [ Era_method; Ta_method; Ita_method; Merge_method ]

(* Register every strategy's run counter at load time so `trex_cli
   stats` lists them all, including the ones still at zero. *)
let () =
  List.iter
    (fun m -> ignore (Metrics.counter ("strategy.runs." ^ method_to_string m)))
    all_methods

(* The Env tables a method reads beyond the base index; an open breaker
   on any of them takes the method out of planning, and a failure
   inside the method trips exactly these. ERA reads only the base
   tables, which have no redundant substitute — it maps to []. *)
let tables_of_method = function
  | Era_method -> []
  | Ta_method | Ita_method -> [ Rpl.table_name Rpl.Rpl; Rpl.catalog_name Rpl.Rpl ]
  | Merge_method -> [ Rpl.table_name Rpl.Erpl; Rpl.catalog_name Rpl.Erpl ]

type outcome = {
  method_used : method_;
  answers : Answer.t;
  elapsed_seconds : float;
  entries_read : int;
  degraded : bool;
  detail : string;
}

let evaluate_inner index ~scoring ~sids ~terms ~k ?guard ?floor method_ =
  let reads0 = Metrics.value m_node_reads in
  let node_reads () = Metrics.value m_node_reads - reads0 in
  match method_ with
  | Era_method ->
      let clock = Stopclock.create () in
      let results, stats = Era.run ?guard index ~sids ~terms in
      let answers = Era.score_results index ~scoring ~terms results in
      {
        method_used = Era_method;
        answers;
        elapsed_seconds = Stopclock.elapsed clock;
        entries_read = stats.positions_scanned;
        degraded = stats.degraded;
        detail =
          Printf.sprintf "positions=%d seeks=%d emitted=%d node_reads=%d"
            stats.positions_scanned stats.iterator_seeks stats.elements_emitted
            (node_reads ());
      }
  | Ta_method | Ita_method ->
      let ideal_heap = method_ = Ita_method in
      let answers, stats =
        Ta.run index ~sids ~terms ~k ~ideal_heap ?floor ?guard ()
      in
      {
        method_used = method_;
        answers;
        elapsed_seconds = stats.elapsed_seconds;
        entries_read = stats.sorted_accesses;
        degraded = stats.degraded;
        detail =
          Printf.sprintf
            "accesses=%d heap_ops=%d pushes=%d evictions=%d candidates=%d \
             early=%b node_reads=%d"
            stats.sorted_accesses stats.heap_operations stats.heap_pushes
            stats.heap_evictions stats.candidates stats.stopped_early
            (node_reads ());
      }
  | Merge_method ->
      let answers, stats = Merge.run ?guard index ~sids ~terms in
      {
        method_used = Merge_method;
        answers;
        elapsed_seconds = stats.elapsed_seconds;
        entries_read = stats.entries_read;
        degraded = stats.degraded;
        detail =
          Printf.sprintf "entries=%d merged=%d node_reads=%d"
            stats.entries_read stats.elements_merged (node_reads ());
      }

(* One journal record per *top-level* evaluation. [evaluate], [race]
   and [evaluate_resilient] all funnel through [with_journal]; the
   scope flag keeps the inner [evaluate] calls (race legs, resilient
   failover attempts) from writing their own records, because each
   journal record is one observed query — [Workload.of_journal] turns
   record counts into frequencies, so double-counting would skew the
   advisor. An evaluation that escapes by exception writes nothing;
   [evaluate_resilient]'s salvaged fallbacks record the method that
   finally answered plus the failover count. *)
let journal_scope = ref false

let with_journal index ~sids ~terms ~k ~summary run =
  if (not (Journal.enabled ())) || !journal_scope then run ()
  else begin
    journal_scope := true;
    Fun.protect
      ~finally:(fun () -> journal_scope := false)
      (fun () ->
        let started = Journal.start_query () in
        let result = run () in
        let outcome, fallbacks = summary result in
        let spans =
          if Span.enabled () then
            match Span.last () with
            | Some s -> Span.summarize s
            | None -> []
          else []
        in
        let j = Env.journal (Trex_invindex.Index.env index) in
        ignore
          (Journal.finish_query j started
             ~strategy:(method_to_string outcome.method_used)
             ~sids ~terms ~k ~degraded:outcome.degraded ~fallbacks ~spans ());
        result)
  end

let evaluate index ~scoring ~sids ~terms ~k ?guard ?floor method_ =
  let name = method_to_string method_ in
  with_journal index ~sids ~terms ~k
    ~summary:(fun o -> (o, 0))
    (fun () ->
      let outcome =
        Span.with_ ~name:("eval." ^ name)
          ~attrs:[ ("strategy", name); ("k", string_of_int k) ]
          (fun () ->
            evaluate_inner index ~scoring ~sids ~terms ~k ?guard ?floor method_)
      in
      Metrics.incr (Metrics.counter ("strategy.runs." ^ name));
      if outcome.degraded then Metrics.incr m_degraded_runs;
      Metrics.observe
        (Metrics.histogram ("strategy.seconds." ^ name))
        outcome.elapsed_seconds;
      outcome)

let breakers_permit index method_ =
  let env = Trex_invindex.Index.env index in
  List.for_all (Env.table_available env) (tables_of_method method_)

(* One catalog pass per kind: the RPL walk yields both coverage and the
   entry total [choose] weighs k against. *)
let plan index ~sids ~terms =
  let rpl_entries = Rpl.materialized index Rpl.Rpl ~sids ~terms in
  let erpl_ok = Rpl.covers index Rpl.Erpl ~sids ~terms in
  let methods =
    List.filter
      (function
        | Era_method -> true
        | Ta_method | Ita_method ->
            rpl_entries <> None && breakers_permit index Ta_method
        | Merge_method -> erpl_ok && breakers_permit index Merge_method)
      all_methods
  in
  (methods, Option.value rpl_entries ~default:0)

let available index ~sids ~terms = fst (plan index ~sids ~terms)

let race ?guard index ~scoring ~sids ~terms ~k =
  with_journal index ~sids ~terms ~k ~summary:(fun o -> (o, 0)) @@ fun () ->
  let methods = available index ~sids ~terms in
  let has m = List.mem m methods in
  if has Ta_method && has Merge_method then begin
    let ta = evaluate index ~scoring ~sids ~terms ~k ?guard Ta_method in
    let merge = evaluate index ~scoring ~sids ~terms ~k ?guard Merge_method in
    let winner, loser = if ta.elapsed_seconds <= merge.elapsed_seconds then (ta, merge) else (merge, ta) in
    {
      winner with
      detail =
        Printf.sprintf "race winner=%s (%.3fms) loser=%s (%.3fms)"
          (method_to_string winner.method_used)
          (winner.elapsed_seconds *. 1e3)
          (method_to_string loser.method_used)
          (loser.elapsed_seconds *. 1e3);
    }
  end
  else if has Merge_method then evaluate index ~scoring ~sids ~terms ~k ?guard Merge_method
  else if has Ta_method then evaluate index ~scoring ~sids ~terms ~k ?guard Ta_method
  else evaluate index ~scoring ~sids ~terms ~k ?guard Era_method

let choose index ~sids ~terms ~k =
  let methods, total_rpl = plan index ~sids ~terms in
  let has m = List.mem m methods in
  (* TA wins when it can stop after a small prefix; once k approaches
     the list sizes it reads everything and pays heap management on
     top, where Merge's single pass wins (paper §5.2). *)
  if has Ta_method && k * 20 <= max 1 total_rpl then Ta_method
  else if has Merge_method then Merge_method
  else if has Ta_method then Ta_method
  else Era_method

type failover = { failed : method_; error : string }

let evaluate_resilient index ~scoring ~sids ~terms ~k ?guard ?floor ?method_ ()
    =
  let env = Trex_invindex.Index.env index in
  (* A failure inside a redundant-index method trips that method's
     tables and re-plans over the survivors, so TA falls back to Merge
     falls back to ERA. ERA has no substitute: its failures (and any
     non-storage exception, e.g. Truncated_rpl on a forced method)
     propagate typed. Termination: every fallback trips at least one
     table, shrinking [available] until only ERA is left. *)
  let rec go forced failovers =
    let m =
      match forced with Some m -> m | None -> choose index ~sids ~terms ~k
    in
    let tables = tables_of_method m in
    (* Consuming admission: a half-open table hands this evaluation its
       single probe slot. Remember which tables are probing so every
       exit path resolves the slot — a degraded run or an escaped guard
       abort fails the probe (re-opening the breaker) instead of
       leaking it half-open forever. *)
    List.iter (fun tbl -> ignore (Env.admit_table env tbl)) tables;
    let probes = List.filter (Env.table_probing env) tables in
    let fail_probes reason =
      List.iter (fun tbl -> Env.fail_table env tbl ~reason) probes
    in
    match evaluate index ~scoring ~sids ~terms ~k ?guard ?floor m with
    | outcome ->
        if outcome.degraded && probes <> [] then begin
          (* The probe proved nothing: the budget expired before the
             table served a complete run. Re-open rather than close on
             an unverified table. *)
          fail_probes "half-open probe expired its budget (degraded run)";
          List.iter
            (fun tbl ->
              if not (List.mem tbl probes) then Env.note_table_success env tbl)
            tables
        end
        else List.iter (Env.note_table_success env) tables;
        (outcome, List.rev failovers)
    | exception ((Pager.Corruption _ | Retry.Exhausted _ | Rpl.Stale_generation _) as e)
      when tables <> [] ->
        let error = Printexc.to_string e in
        List.iter (fun tbl -> Env.trip_table env tbl ~reason:error) tables;
        Metrics.incr m_fallbacks;
        go None ({ failed = m; error } :: failovers)
    | exception (Guard.Budget_exceeded _ as e) ->
        fail_probes "half-open probe aborted by guard budget";
        raise e
  in
  with_journal index ~sids ~terms ~k
    ~summary:(fun (o, fos) -> (o, List.length fos))
    (fun () -> go method_ [])
