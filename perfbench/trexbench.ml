(* The TReX benchmark.

     dune exec --root . -- ./perfbench/trexbench.exe \
       --workload era-unindexed --seed 1 --seconds 40 --trace 0

   runs one workload against the public API (Trex, Shard, Supervisor,
   Serve), checks every answer against a reference ERA ranking of the
   same data, prints the metrics by name and unit, and ends with one
   JSON line: {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end ones of BENCHMARK.json,
   timings taken to a reference processor speed (see "processor speed"
   below), with [--trace 1] the per-layer ones, from a run that also
   writes a Chrome trace to perfbench/out/. perfbench/spec.json holds
   every workload parameter. BENCHMARK.json names era-unindexed and
   served-topk; ingest-mixed runs by name.

     dune exec --root . -- ./perfbench/trexbench.exe steady --runs 10

   runs every workload of BENCHMARK.json on ten seeds and prints each
   end-to-end metric's median and quartile spread against its bound.

   Exit codes: 0 all answers right (known defects are counted in
   [failed] or printed as "known defect:", not here); 1 some answer
   differed from the reference; 2 usage error, missing spec or a run
   that could not complete. *)

module Gen = Trex_corpus.Gen
module Queries = Trex_corpus.Queries
module Shard = Trex_shard.Shard
module Supervisor = Trex_shard.Supervisor
module Wire = Trex_shard.Wire
module Serve = Trex_serve.Serve
module Json = Trex_obs.Json
module Metrics = Trex_obs.Metrics
module Span = Trex_obs.Span
module Prng = Trex_util.Prng
module Framing = Trex_util.Framing
module Strategy = Trex.Strategy
module Stats = Perfbench_stats.Stats

let now = Trex_util.Stopclock.now

let arg_value key args =
  let rec go = function
    | k :: v :: _ when k = key -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go args

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("trexbench: " ^ s); exit 2) fmt

(* Supervised shard workers exec their parent's binary, and the served
   workload runs its front door as a fresh process of this binary, so
   both argv shapes are answered before anything else. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "shard-worker" :: rest -> (
      match (arg_value "--dir" rest, arg_value "--shard" rest) with
      | Some dir, Some shard -> Supervisor.worker_main ~dir ~shard ()
      | _ -> die "shard-worker needs --dir and --shard")
  | _ :: "serve-daemon" :: rest ->
      let dir =
        match arg_value "--dir" rest with Some d -> d | None -> die "serve-daemon needs --dir"
      in
      exit
        (Serve.run ~dir ~addr:"127.0.0.1:0"
           ~on_ready:(fun addr -> Printf.printf "SERVING %s\n%!" addr)
           ())
  | _ -> ()

(* ---- files and processes ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let rec walk_files dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then walk_files p @ acc else p :: acc)
    [] (Sys.readdir dir)

(* On-disk table bytes: the B+tree files, the index proper. *)
let tbl_bytes dir =
  List.fold_left
    (fun acc p ->
      if Filename.check_suffix p ".tbl" then acc + (Unix.stat p).Unix.st_size else acc)
    0 (walk_files dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in KiB; 0 once it is gone. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | v -> v
          | exception _ -> acc)
        0 (String.split_on_char '\n' s)

let children_of pid =
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some p -> (
          match read_file (Printf.sprintf "/proc/%d/stat" p) with
          | exception Sys_error _ -> acc
          | stat -> (
              (* "pid (comm) state ppid ..."; comm may hold spaces *)
              let after = String.rindex stat ')' in
              match
                String.split_on_char ' '
                  (String.sub stat (after + 2) (String.length stat - after - 2))
              with
              | _state :: ppid :: _ when int_of_string_opt ppid = Some pid -> p :: acc
              | _ -> acc)))
    [] (Sys.readdir "/proc")

let alive pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* Clock ticks the hypervisor has taken from this machine's processors
   since boot (the steal column of /proc/stat), 0 where there is none. *)
let steal_ticks () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> Option.value ~default:0 (int_of_string_opt steal)
      | _ -> 0)
  | None | (exception Sys_error _) -> 0

(* Run [f] in a forked child and return its marshalled result, so that
   reference computations never touch this process's heap or its peak
   resident set. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let result : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result : ('a, string) result =
        try Marshal.from_channel ic with End_of_file -> Error "reference child died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with Ok v -> v | Error e -> failwith ("reference: " ^ e))

(* ---- spec ---- *)

let spec = ref Json.Null
let bench = ref Json.Null

let rec jpath json = function
  | [] -> json
  | k :: rest -> (
      match Json.member k json with
      | Some v -> jpath v rest
      | None -> die "spec: missing %s" (String.concat "." (k :: rest)))

let jfloat json path =
  match jpath json path with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> die "spec: %s is not a number" (String.concat "." path)

let jint json path = int_of_float (jfloat json path)

let jlist json path =
  match jpath json path with Json.List l -> l | _ -> die "spec: %s is not a list" (String.concat "." path)

let jstr = function Json.String s -> s | _ -> die "spec: expected a string"

let load_json path =
  match Json.parse (read_file path) with
  | j -> j
  | exception Sys_error e -> die "cannot read %s: %s" path e
  | exception Json.Parse_error e -> die "%s: %s" path e

(* ---- accounting ---- *)

let attempted = ref 0
let failed = ref 0
let wrong = ref 0
let failures : (string, int) Hashtbl.t = Hashtbl.create 16

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
let ok_op () = incr attempted

let fail_op name =
  incr attempted;
  incr failed;
  bump failures name

let wrong_answer name =
  incr wrong;
  fail_op ("ranking differs from the reference: " ^ name)

(* Where a process's heap lands in physical memory moves an
   allocation-bound loop by a third between otherwise identical
   processes. Running a timed loop as [parts] forked children, one after
   the other, samples that luck [parts] times per run instead of once.
   Each child's accounting and peak resident set come back with its
   result, which [merge] receives before the next part starts. *)
let child_hwm_kb = ref 0

let in_parts parts (f : int -> 'a) (merge : 'a -> unit) =
  for i = 0 to parts - 1 do
      let v, (da, df, dw, named, hwm) =
        in_child (fun () ->
            attempted := 0;
            failed := 0;
            wrong := 0;
            Hashtbl.reset failures;
            let v = f i in
            (v, (!attempted, !failed, !wrong, Hashtbl.fold (fun k n acc -> (k, n) :: acc) failures [],
                 vm_hwm_kb (Unix.getpid ()))))
      in
      attempted := !attempted + da;
      failed := !failed + df;
      wrong := !wrong + dw;
      List.iter (fun (k, n) -> Hashtbl.replace failures k (n + Option.value ~default:0 (Hashtbl.find_opt failures k))) named;
      child_hwm_kb := max !child_hwm_kb hwm;
      merge v
  done

let peak_rss_mb () = float_of_int (max !child_hwm_kb (vm_hwm_kb (Unix.getpid ()))) /. 1024.0

(* ---- answers ---- *)

type signature = (int * int * float) list

let signature (a : Trex.Answer.t) : signature =
  List.map
    (fun (e : Trex.Answer.entry) ->
      (e.element.Trex.Types.docid, e.element.Trex.Types.endpos, e.score))
    a

let same_ranking (a : signature) (b : signature) =
  List.length a = List.length b
  && List.for_all2
       (fun (d1, p1, s1) (d2, p2, s2) ->
         d1 = d2 && p1 = p2 && Float.abs (s1 -. s2) <= 1e-9 *. Float.max 1.0 (Float.abs s1))
       a b

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let method_name = Strategy.method_to_string

(* ---- metrics ---- *)

let results : (string, float) Hashtbl.t = Hashtbl.create 64
let put name v = Hashtbl.replace results name v

let corpus_sizes () =
  let c name = jint !spec [ "corpora"; name; "docs" ] and s name = jint !spec [ "corpora"; name; "seed" ] in
  ( Gen.ieee ~doc_count:(c "ieee") ~seed:(s "ieee") (),
    Gen.wikipedia ~doc_count:(c "wikipedia") ~seed:(s "wikipedia") () )

let xml_bytes docs = Seq.fold_left (fun acc (_, x) -> acc + String.length x) 0 docs

let ms s = s *. 1000.0

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Latency percentiles over one workload's query samples (ms). *)
let put_latency ~tail samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then failwith "no latency samples";
  if Stats.samples_beyond ~n tail < 10 then
    Printf.printf "note: only %d samples beyond p%g (fewer than 10)\n" (Stats.samples_beyond ~n tail) tail;
  put "latency_p50_ms" (Stats.percentile a 50.0);
  put "latency_tail_ms" (Stats.percentile a tail);
  Printf.printf "latency over %d queries: p50 %.3f ms, tail p%g %.3f ms (%d beyond)\n" n
    (Stats.percentile a 50.0) tail (Stats.percentile a tail) (Stats.samples_beyond ~n tail)

(* [times]: (as measured, at the reference speed) per set-up *)
let put_setup times =
  put "setup_s" (Stats.median (Array.of_list (List.map snd times)));
  Printf.printf "setup: %s s as measured, %s s at the reference speed (median of %d)\n"
    (String.concat " " (List.map (fun (t, _) -> Printf.sprintf "%.3f" t) times))
    (String.concat " " (List.map (fun (_, t) -> Printf.sprintf "%.3f" t) times))
    (List.length times)

(* ---- processor speed ---- *)

(* Every timing that feeds an end-to-end metric is taken to the
   reference speed: multiplied by calibration.reference_ms over the
   median time of the calibration work (Stats.calibration_work) run
   beside it. The engine's own speed is in the ratio; the shared host's
   swings, which move both alike, cancel. Figures as measured are
   printed beside them. *)
let calibration = lazy (Stats.calibration (jint !spec [ "calibration"; "elements" ]))

let calibrate () =
  let c = Lazy.force calibration in
  let t0 = now () in
  ignore (Sys.opaque_identity (Stats.calibration_work c));
  ms (now () -. t0)

let speed_factor calibs = jfloat !spec [ "calibration"; "reference_ms" ] /. Stats.median (Array.of_list calibs)

let put_calibration calibs =
  let m = Stats.median (Array.of_list calibs) in
  put "host.calibration_ms" m;
  Printf.printf "calibration: median %.3f ms over %d (reference %.3f ms)\n" m (List.length calibs)
    (jfloat !spec [ "calibration"; "reference_ms" ])

(* ---- per-layer counters around calls into the engine ---- *)

let counter_names =
  [|
    "pager.cache_hits"; "pager.cache_misses"; "pager.physical_reads"; "pager.physical_writes";
    "pager.fsyncs"; "bptree.node_splits"; "env.quarantines"; "manifest.rolled_back";
    "era.positions_scanned"; "era.iterator_seeks"; "ta.runs"; "ta.sorted_accesses";
    "ta.heap_operations"; "ta.blocks_skipped"; "ta.early_stops"; "merge.entries_read";
    "resilience.fallbacks"; "shard.early_terminations"; "supervisor.restarts"; "supervisor.kills";
  |]

let counter_index name =
  let rec go i = if counter_names.(i) = name then i else go (i + 1) in
  go 0

let snapshot () = Array.map (fun n -> Metrics.value (Metrics.counter n)) counter_names

(* Counter, GC and method totals over a set of measured calls. *)
type layer_acc = {
  deltas : int array;
  mutable calls : int;
  mutable majors : int;
  words : (string, float * int) Hashtbl.t;  (** method -> minor words, calls *)
  methods : (string, int) Hashtbl.t;
}

let new_acc () =
  {
    deltas = Array.make (Array.length counter_names) 0;
    calls = 0;
    majors = 0;
    words = Hashtbl.create 4;
    methods = Hashtbl.create 4;
  }

let measured acc f =
  let c0 = snapshot () and w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  let c1 = snapshot () and w1 = Gc.minor_words () and m1 = (Gc.quick_stat ()).Gc.major_collections in
  Array.iteri (fun i v -> acc.deltas.(i) <- acc.deltas.(i) + v - c0.(i)) c1;
  acc.calls <- acc.calls + 1;
  acc.majors <- acc.majors + m1 - m0;
  (r, w1 -. w0)

(* Counters only where the layers are traced, so that the untraced part
   of a traced run pays for neither and stays a fair baseline. *)
let traced_call ~traced acc f = if traced then measured acc f else (f (), 0.0)

let note_method acc m words =
  bump acc.methods m;
  let w, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.words m) in
  Hashtbl.replace acc.words m (w +. words, n + 1)

let delta acc name = float_of_int acc.deltas.(counter_index name)
let per n x = if n <= 0 then 0.0 else x /. float_of_int n

(* The per-layer figures every query-running workload shares. *)
let put_query_layers acc =
  let n = acc.calls in
  let hits = delta acc "pager.cache_hits" and misses = delta acc "pager.cache_misses" in
  put "storage.pager.hit_ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
  put "storage.pager.physical_reads_per_query" (per n (delta acc "pager.physical_reads"));
  put "gc.major_collections_per_kop" (per n (float_of_int acc.majors *. 1000.0));
  List.iter
    (fun m ->
      let w, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.words m) in
      put ("gc.minor_words_per_query." ^ m) (per c w);
      put ("topk.method_share." ^ m)
        (per (Hashtbl.fold (fun _ v a -> a + v) acc.methods 0)
           (float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.methods m)))))
    [ "ERA"; "TA"; "Merge" ];
  put "era.positions_scanned_per_query" (per n (delta acc "era.positions_scanned"));
  put "era.iterator_seeks_per_query" (per n (delta acc "era.iterator_seeks"));
  put "ta.sorted_accesses_per_query" (per n (delta acc "ta.sorted_accesses"));
  put "ta.heap_operations_per_query" (per n (delta acc "ta.heap_operations"));
  put "ta.blocks_skipped_per_query" (per n (delta acc "ta.blocks_skipped"));
  put "ta.early_stop_ratio"
    (if delta acc "ta.runs" > 0.0 then delta acc "ta.early_stops" /. delta acc "ta.runs" else 0.0);
  put "merge.entries_read_per_query" (per n (delta acc "merge.entries_read"));
  put "resilience.fallbacks" (delta acc "resilience.fallbacks")

let put_bytes (sizes : Trex.table_sizes list) =
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 sizes) in
  put "bytes.elements" (sum (fun s -> s.Trex.elements_bytes));
  put "bytes.postings" (sum (fun s -> s.Trex.postings_bytes));
  put "bytes.rpls" (sum (fun s -> s.Trex.rpls_bytes));
  put "bytes.erpls" (sum (fun s -> s.Trex.erpls_bytes))

(* ---- spans ---- *)

let rec iter_spans f (s : Span.t) =
  f s;
  List.iter (iter_spans f) s.Span.children

let self_seconds (s : Span.t) =
  let lo = s.Span.start_s in
  let kids =
    List.map
      (fun (c : Span.t) -> ((if c.Span.start_s = 0.0 then lo else c.Span.start_s), c.Span.seconds))
      s.Span.children
  in
  Float.max 0.0 (s.Span.seconds -. Stats.covered ~lo ~hi:(lo +. s.Span.seconds) kids)

let layer_of name =
  let starts p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if starts "bench." then "bench (client side)"
  else if name = "query" || name = "query_structured" then "core (Trex.query)"
  else if name = "parse+translate" then "nexi"
  else if starts "eval." then "topk"
  else if name = "materialize" then "invindex (rpl build)"
  else if starts "supervisor." || name = "shard.query" then "shard (scatter)"
  else if starts "shard.query." then "shard (worker)"
  else name

(* Mean duration (ms) of the spans called [name] in the forest. *)
let span_mean_ms roots name =
  let total = ref 0.0 and n = ref 0 in
  List.iter
    (iter_spans (fun s ->
         if s.Span.name = name then begin
           total := !total +. s.Span.seconds;
           incr n
         end))
    roots;
  if !n = 0 then 0.0 else ms !total /. float_of_int !n

let print_self_times roots =
  let by_name : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (iter_spans (fun s ->
         let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.Span.name) in
         Hashtbl.replace by_name s.Span.name (t +. self_seconds s, n + 1)))
    roots;
  let rows = Hashtbl.fold (fun k (t, n) acc -> (k, t, n) :: acc) by_name [] in
  let total = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 rows in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows in
  Printf.printf "\nself time by span (traced part; parallel worker spans overlap their parent)\n";
  Printf.printf "%-24s %-22s %8s %12s %8s\n" "layer" "span" "count" "self ms" "share";
  List.iter
    (fun (name, t, n) ->
      Printf.printf "%-24s %-22s %8d %12.3f %7.1f%%\n" (layer_of name) name n (ms t)
        (if total > 0.0 then 100.0 *. t /. total else 0.0))
    rows

let export_trace ~workload ~seed roots =
  let path = Printf.sprintf "perfbench/out/trace-%s-seed%d.json" workload seed in
  mkdir_p (Filename.dirname path);
  Trex_obs.Export.write path
    [ { Trex_obs.Export.p_pid = Unix.getpid (); p_name = "trexbench " ^ workload; p_spans = roots } ];
  Printf.printf "chrome trace: %s\n" path

(* Tracing cost: the traced share of the loop against the untraced
   one, each as work per second. *)
let put_overhead ~untraced ~traced =
  let rate (work, secs) = if secs > 0.0 then work /. secs else 0.0 in
  let u = rate untraced and t = rate traced in
  put "obs.trace_overhead_share" (if u > 0.0 then 1.0 -. (t /. u) else 0.0);
  Printf.printf "tracing: %.3f/s untraced vs %.3f/s traced\n" u t

(* ---- run context ---- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  root : string;  (** working directory of this run, under perfbench/out *)
  w : Json.t;  (** the workload's spec *)
}

let setup_repeats () = jint !spec [ "setup_repeats" ]

(* Run [setup] [setup_repeats] times, tearing down all but the last.
   Each time is also taken to the reference speed, by calibrations run
   just before and just after it. *)
let repeated_setup setup teardown =
  let timed () =
    let before = List.init 5 (fun _ -> calibrate ()) in
    let t, v = setup () in
    let after = List.init 5 (fun _ -> calibrate ()) in
    ((t, t *. speed_factor (before @ after)), v)
  in
  let rec go i times =
    let t, v = timed () in
    if i + 1 < setup_repeats () then begin
      teardown v;
      go (i + 1) (t :: times)
    end
    else (List.rev (t :: times), v)
  in
  go 0 []

(* ===== era-unindexed ===== *)

let era_unindexed ctx =
  let k = jint ctx.w [ "k" ] and cache_pages = jint ctx.w [ "cache_pages" ] in
  let ieee, wiki = corpus_sizes () in
  let corpora = [ (ieee, Queries.Ieee); (wiki, Queries.Wikipedia) ] in
  let xml = List.fold_left (fun a ((c : Gen.collection), _) -> a + xml_bytes (c.docs ())) 0 corpora in
  (* the bulk write path of the set-up: each build and its durable close *)
  let build_acc = new_acc () and built_docs = ref 0 in
  let setup () =
    rm_rf ctx.root;
    mkdir_p ctx.root;
    let t0 = now () in
    let engines =
      List.map
        (fun ((coll : Gen.collection), cid) ->
          let dir = Filename.concat ctx.root coll.name in
          let env = Trex.Env.on_disk ~cache_pages dir in
          ignore
            (traced_call ~traced:ctx.trace build_acc (fun () ->
                 ignore (Trex.build ~env ~alias:coll.alias (coll.docs ()));
                 Trex.Env.close env));
          built_docs := !built_docs + coll.doc_count;
          ok_op ();
          let env = Trex.Env.on_disk ~cache_pages dir in
          (cid, dir, env, Trex.attach ~env ()))
        corpora
    in
    (now () -. t0, engines)
  in
  let close_all = List.iter (fun (_, _, env, _) -> Trex.Env.close env) in
  let setup_times, engines = repeated_setup setup close_all in
  put_setup setup_times;
  let reference =
    in_child (fun () ->
        List.concat_map
          (fun ((coll : Gen.collection), cid) ->
            let env = Trex.Env.in_memory () in
            let e = Trex.build ~env ~alias:coll.alias (coll.docs ()) in
            List.map
              (fun (q : Queries.t) ->
                (q.id, signature (Trex.query e ~k ~method_:Strategy.Era_method q.nexi).strategy.answers))
              (Queries.for_collection cid))
          corpora)
  in
  let work =
    List.concat_map
      (fun (cid, _, _, engine) -> List.map (fun q -> (q, engine)) (Queries.for_collection cid))
      engines
  in
  let files_before = List.map (fun (_, dir, _, _) -> (dir, Array.to_list (Sys.readdir dir))) engines in
  let acc = new_acc () in
  let samples = ref [] and good = ref 0 in
  let run_query ~traced ((q : Queries.t), engine) =
    let t0 = now () in
    match
      traced_call ~traced acc (fun () ->
          Span.with_ ~name:"bench.trex.query" ~attrs:[ ("q", q.id) ] (fun () -> Trex.query engine ~k q.nexi))
    with
    | exception e ->
        fail_op (Printf.sprintf "query %s: %s" q.id (Printexc.to_string e));
        now () -. t0
    | o, words ->
        let dt = now () -. t0 in
        if traced then note_method acc (method_name o.strategy.method_used) words;
        if o.degraded then fail_op (Printf.sprintf "query %s: degraded" q.id)
        else if not (same_ranking (signature o.strategy.answers) (List.assoc q.id reference)) then
          wrong_answer ("query " ^ q.id)
        else begin
          ok_op ();
          if not traced then incr good
        end;
        dt
  in
  (* warm-up round: lazy opens and first-touch set-up stay out of the timing *)
  List.iter (fun x -> ignore (run_query ~traced:false x)) work;
  good := 0;
  let per_query : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  let untraced = ref (0.0, 0.0) and traced = ref (0.0, 0.0) and rounds = ref 0 in
  (* seconds of untraced work at the reference speed, and the calibrations *)
  let norm_time = ref 0.0 and calibs = ref [] in
  (* Complete seeded rounds until [seconds] of timed work; traced runs
     alternate untraced and traced rounds. The calibration runs before
     every query; a round's latencies are taken to the reference speed
     by the median of its calibrations. *)
  let timed_rounds rng seconds =
    let timed = ref 0.0 and first = !rounds in
    while !timed < seconds || (ctx.trace && !rounds - first < 2) do
      let is_traced = ctx.trace && !rounds mod 2 = 1 in
      Span.set_enabled is_traced;
      let order = Array.of_list work in
      Prng.shuffle rng order;
      let timings =
        Array.map
          (fun x ->
            let c = calibrate () in
            (x, c, run_query ~traced:is_traced x))
          order
      in
      let round_calibs = Array.to_list (Array.map (fun (_, c, _) -> c) timings) in
      let f = speed_factor round_calibs in
      let round_time = Array.fold_left (fun a (_, _, dt) -> a +. dt) 0.0 timings in
      if not is_traced then begin
        Array.iter
          (fun (((q : Queries.t), _), _, dt) ->
            samples := (ms dt *. f) :: !samples;
            Hashtbl.replace per_query q.id (ms dt :: Option.value ~default:[] (Hashtbl.find_opt per_query q.id)))
          timings;
        norm_time := !norm_time +. (round_time *. f);
        calibs := round_calibs @ !calibs
      end;
      let cell = if is_traced then traced else untraced in
      cell := (fst !cell +. float_of_int (Array.length order), snd !cell +. round_time);
      timed := !timed +. round_time;
      incr rounds
    done;
    Span.set_enabled false
  in
  let rng = Prng.create ctx.seed in
  if ctx.trace then timed_rounds rng ctx.seconds
  else begin
    let parts = jint ctx.w [ "process_parts" ] in
    let streams = Array.init parts (fun _ -> Prng.split rng) in
    (* each part starts from empty accumulators and returns its own *)
    in_parts parts
      (fun i ->
        samples := [];
        good := 0;
        untraced := (0.0, 0.0);
        norm_time := 0.0;
        calibs := [];
        rounds := 0;
        Hashtbl.reset per_query;
        timed_rounds streams.(i) (ctx.seconds /. float_of_int parts);
        (!samples, !good, !untraced, !norm_time, !calibs, Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_query [], !rounds))
      (fun (s, g, u, nt, c, pq, r) ->
        samples := s @ !samples;
        good := !good + g;
        untraced := (fst !untraced +. fst u, snd !untraced +. snd u);
        norm_time := !norm_time +. nt;
        calibs := c @ !calibs;
        List.iter
          (fun (q, l) -> Hashtbl.replace per_query q (l @ Option.value ~default:[] (Hashtbl.find_opt per_query q)))
          pq;
        rounds := !rounds + r)
  end;
  let created =
    List.concat_map
      (fun (dir, before) ->
        let added = List.filter (fun f -> not (List.mem f before)) (Array.to_list (Sys.readdir dir)) in
        if added <> [] then
          Printf.printf "known defect: read-only queries created %s in %s\n"
            (String.concat "," (List.sort compare added)) (Filename.basename dir);
        added)
      files_before
  in
  List.iter
    (fun ((q : Queries.t), _) ->
      let a = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt per_query q.id)) in
      if Array.length a > 0 then
        Printf.printf "query %s: min %.1f p50 %.1f max %.1f ms over %d (as measured)\n" q.id (Stats.percentile a 0.0)
          (Stats.percentile a 50.0) (Stats.percentile a 100.0) (Array.length a))
    work;
  put_bytes (List.map (fun (_, _, _, e) -> Trex.table_sizes e) engines);
  close_all engines;
  put_calibration !calibs;
  put_latency ~tail:(jfloat ctx.w [ "tail_percentile" ]) !samples;
  put "goodput_per_s" (float_of_int !good /. !norm_time);
  Printf.printf "throughput_qps: %.3f at the reference speed, %.3f as measured (closed loop, %d rounds)\n"
    (float_of_int !good /. !norm_time) (float_of_int !good /. snd !untraced) !rounds;
  put "index_bytes_per_xml_byte" (float_of_int (tbl_bytes ctx.root) /. float_of_int xml);
  put "peak_rss_mb" (peak_rss_mb ());
  (* per-layer *)
  put_query_layers acc;
  put "storage.env_files_created_by_reads" (float_of_int (List.length created));
  put "storage.pager.physical_writes_per_doc" (per !built_docs (delta build_acc "pager.physical_writes"));
  put "storage.pager.fsyncs_per_doc" (per !built_docs (delta build_acc "pager.fsyncs"));
  put "storage.bptree.node_splits_per_doc" (per !built_docs (delta build_acc "bptree.node_splits"));
  if ctx.trace then put_overhead ~untraced:!untraced ~traced:!traced

(* ===== served-topk ===== *)

type req = { id : int; q : int; k : int; due : float; conn : int }

type window = {
  w_requests : int;
  mutable w_good : (req * float * float) list;  (** request, latency s, server eval s *)
  mutable w_degraded : int;
  mutable w_wrong : int;
  mutable w_shed : int;
  mutable w_lost : int;
  mutable w_lag_max : float;
  w_steal : int array;  (** steal ticks per one-second slice of the window *)
}

let read_line_within fd timeout_s =
  let buf = Buffer.create 64 and byte = Bytes.create 1 in
  let deadline = now () +. timeout_s in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type daemon = { pid : int; out : Unix.file_descr; addr : string }

(* Daemons not yet stopped; a run that fails part-way kills them and
   their workers on exit. *)
let live_daemons = ref []

let kill_live_daemons () =
  List.iter
    (fun pid ->
      let workers = children_of pid in
      List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) (pid :: workers);
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      let deadline = now () +. 5.0 in
      while List.exists alive workers && now () < deadline do
        Unix.sleepf 0.01
      done)
    !live_daemons;
  live_daemons := []

let spawn_daemon dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-daemon"; "--dir"; dir |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live_daemons := pid :: !live_daemons;
  match read_line_within r 60.0 with
  | Some line when String.length line > 8 && String.sub line 0 8 = "SERVING " ->
      { pid; out = r; addr = String.sub line 8 (String.length line - 8) }
  | _ -> failwith "front door did not come up"

(* SIGTERM drains the daemon, which shuts its workers down and reaps
   them; anything still alive after that is killed and counted. *)
let stop_daemon d =
  let workers = children_of d.pid in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ok_op ()
  | _, _ -> fail_op "front door did not drain cleanly");
  Unix.close d.out;
  let deadline = now () +. 5.0 in
  while List.exists alive workers && now () < deadline do
    Unix.sleepf 0.01
  done;
  List.iter
    (fun p ->
      if alive p then begin
        fail_op "worker outlived its front door";
        try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()
      end)
    workers

let served_topk ctx =
  let shards = jint ctx.w [ "shards" ] and nconn = jint ctx.w [ "connections" ] in
  let ks = Array.of_list (List.map (fun j -> int_of_float (jfloat j [])) (jlist ctx.w [ "ks" ])) in
  let k_small_share = jfloat ctx.w [ "k_small_share" ] in
  let limit_s = jfloat ctx.w [ "latency_limit_ms" ] /. 1000.0 in
  let ieee, _ = corpus_sizes () in
  let docs = List.of_seq (ieee.docs ()) in
  let queries = Array.of_list (Queries.for_collection Queries.Ieee) in
  let coord = Filename.concat ctx.root "coordinator" in
  let mat_ms : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  (* a front door over the coordinator and its client connections *)
  let start_front () =
    let d = spawn_daemon coord in
    let conns = Array.init nconn (fun _ -> Serve.Client.connect d.addr) in
    (* requests are small frames sent back to back: without NODELAY,
       Nagle holds each behind the previous one's delayed ACK *)
    Array.iter (fun c -> Unix.setsockopt (Serve.Client.fd c) Unix.TCP_NODELAY true) conns;
    (d, conns)
  in
  let setup () =
    rm_rf ctx.root;
    mkdir_p ctx.root;
    let t0 = now () in
    let sh = Shard.create ~dir:coord ~shards ~alias:ieee.alias docs in
    ok_op ();
    Array.iter
      (fun (q : Queries.t) ->
        let t0 = now () in
        match Span.with_ ~name:"bench.shard.materialize" (fun () -> Shard.materialize sh q.nexi) with
        | () ->
            ok_op ();
            Hashtbl.replace mat_ms q.id (ms (now () -. t0) :: Option.value ~default:[] (Hashtbl.find_opt mat_ms q.id))
        | exception e -> fail_op (Printf.sprintf "materialize %s: %s" q.id (Printexc.to_string e)))
      queries;
    Shard.close sh;
    let front = start_front () in
    (now () -. t0, front)
  in
  let teardown (d, conns) =
    Array.iter Serve.Client.close conns;
    stop_daemon d
  in
  let setup_times, first_front = repeated_setup setup teardown in
  put_setup setup_times;
  let kmax = Array.fold_left max 0 ks in
  let reference =
    in_child (fun () ->
        let env = Trex.Env.in_memory () in
        let e = Trex.build ~env ~alias:ieee.alias (List.to_seq docs) in
        Array.map
          (fun (q : Queries.t) -> signature (Trex.query e ~k:kmax ~method_:Strategy.Era_method q.nexi).strategy.answers)
          queries)
  in
  let expected r = take r.k reference.(r.q) in
  let cq r =
    {
      Wire.c_nexi = queries.(r.q).nexi;
      c_k = r.k;
      c_method = None;
      c_strict = false;
      c_deadline_ms = Some (limit_s *. 1000.0);
      c_page_budget = None;
    }
  in
  (* warm-up: every (query, k) once, closed loop *)
  let warm_up conns =
    Array.iteri
      (fun qi (q : Queries.t) ->
        Array.iter
          (fun k ->
            let r = { id = -1; q = qi; k; due = 0.0; conn = 0 } in
            match Serve.Client.request conns.(0) (cq r) with
            | Serve.Client.Answer a when (not a.Wire.ca_degraded) && same_ranking (signature a.Wire.ca_answers) (expected r) ->
                ok_op ()
            | Serve.Client.Answer a when a.Wire.ca_degraded -> fail_op ("warm-up degraded: " ^ q.id)
            | Serve.Client.Answer _ -> wrong_answer ("served " ^ q.id)
            | Serve.Client.Shed _ | Serve.Client.Draining -> fail_op ("warm-up refused: " ^ q.id))
          ks)
      queries
  in
  let zipf = Trex_util.Zipf.create ~exponent:(jfloat ctx.w [ "zipf_s" ]) (Array.length queries) in
  let rng = Prng.create ctx.seed in
  let draw rng =
    let q = Trex_util.Zipf.sample zipf rng in
    (q, if Prng.float rng 1.0 < k_small_share then ks.(0) else ks.(1))
  in
  let schedule ~rate ~duration =
    let offsets = Stats.poisson_schedule (Prng.split rng) ~rate ~duration in
    Array.mapi
      (fun i t ->
        let q, k = draw rng in
        { id = i; q; k; due = t; conn = i mod nconn })
      offsets
  in
  (* The closed loop's deck: the mix in fixed counts (see Stats.zipf_deck).
     Every round is a seeded shuffle of the whole deck, so every run
     offers the same mix and only its order varies with the seed. *)
  let deck =
    Stats.zipf_deck ~top:(jint ctx.w [ "deck_top" ]) ~exponent:(jfloat ctx.w [ "zipf_s" ]) ~n:(Array.length queries)
      ~share:k_small_share ~ks:(ks.(0), ks.(1))
  in
  let closed_s = ctx.seconds *. jfloat ctx.w [ "closed_share_of_run" ] in
  let high_s = ctx.seconds -. closed_s in
  (* The run is measured in [process_parts] parts, each against a fresh
     front door and workers; every part's schedule and closed-loop order
     come from the seed up front. *)
  let parts = jint ctx.w [ "process_parts" ] in
  let pf = float_of_int parts in
  let high_reqs =
    Array.init parts (fun _ -> schedule ~rate:(jfloat ctx.w [ "rate_high_qps" ]) ~duration:(high_s /. pf))
  in
  let closed_rngs = Array.init parts (fun _ -> Prng.split rng) in
  let part_s = high_s /. pf in
  let slices = max 1 (int_of_float part_s) in
  let calibrate_every = jint ctx.w [ "calibrate_every" ] in
  let calibs = ref [] in
  (* Closed loop on one connection: the next request goes out when the
     previous reply is in, so the machine never idles between requests.
     Latency runs from the send to the last byte of the reply; decoding
     and checking follow outside it. Whole decks only; the calibration
     runs before every [calibrate_every]-th request. Per deck: host steal
     ticks per second while it ran, and its samples (ms as measured,
     server evaluation ms, (query, k)); and the calibrations. *)
  let closed_loop conns rng duration =
    let fds = Array.map Serve.Client.fd conns in
    let dec = Framing.Decoder.create () and chunk = Bytes.create 65536 in
    let rec next_frame () =
      match Framing.Decoder.next dec with
      | Some payload -> payload
      | None -> (
          match Unix.select [ fds.(0) ] [] [] 30.0 with
          | [], _, _ -> failwith "front door stopped answering"
          | _ -> (
              match Unix.read fds.(0) chunk 0 (Bytes.length chunk) with
              | 0 -> failwith "front door hung up"
              | n ->
                  Framing.Decoder.feed dec chunk 0 n;
                  next_frame ()))
    in
    let decks = ref [] and part_calibs = ref [] and t_end = now () +. duration in
    while now () < t_end do
      let order = Array.copy deck in
      Prng.shuffle rng order;
      let deck_calibs = ref [] and lat = ref [] in
      let s0 = steal_ticks () and t0 = now () in
      Array.iteri
        (fun i (q, k) ->
          if i mod calibrate_every = 0 then deck_calibs := calibrate () :: !deck_calibs;
          let r = { id = 0; q; k; due = 0.0; conn = 0 } in
          let t0 = now () in
          Serve.Client.send conns.(0) (Wire.Client_query (cq r));
          let payload = next_frame () in
          let dt = now () -. t0 in
          match Wire.decode_response payload with
          | Wire.Client_answer a when a.Wire.ca_degraded -> fail_op "served closed loop: degraded answer"
          | Wire.Client_answer a when same_ranking (signature a.Wire.ca_answers) (expected r) ->
              ok_op ();
              lat := (ms dt, ms a.Wire.ca_elapsed_s, (q, k)) :: !lat
          | Wire.Client_answer _ -> wrong_answer "served closed loop answer"
          | Wire.Shed _ -> fail_op "served closed loop: shed"
          | _ -> fail_op "served closed loop: unexpected frame")
        order;
      let steal_rate = float_of_int (steal_ticks () - s0) /. (now () -. t0) in
      decks := (steal_rate, !lat) :: !decks;
      part_calibs := !deck_calibs @ !part_calibs
    done;
    (!decks, !part_calibs)
  in
  (* One open-loop window. The timed loop only sends on schedule and
     timestamps whole frames as they arrive; decoding, matching and
     checking the replies happen after it, so the generator's own cost
     stays off the replies' latency. Every frame the front door sends on
     a client connection during a window is the one reply of one
     request, which is how the loop knows when all are in. *)
  let run_window conns reqs =
    let fds = Array.map Serve.Client.fd conns in
    let n = Array.length reqs in
    let sent = Array.init nconn (fun _ -> ref []) in
    let frames = Array.init nconn (fun _ -> ref []) in
    let counts = Array.make nconn 0 and replies = Array.make nconn 0 in
    let decoders = Array.init nconn (fun _ -> Framing.Decoder.create ()) in
    let open_ = Array.make nconn true in
    let chunk = Bytes.create 65536 in
    let start = now () +. 0.01 in
    (* steal at each slice boundary, read on the first pass after it *)
    let marks = Array.make (slices + 1) (-1) and marked = ref 0 in
    let mark t =
      if !marked <= slices && t >= start +. (float_of_int !marked *. part_s /. float_of_int slices) then begin
        marks.(!marked) <- steal_ticks ();
        incr marked
      end
    in
    let last_due = if n = 0 then start else start +. reqs.(n - 1).due in
    let hard_stop = last_due +. limit_s +. 10.0 in
    let lag_max = ref 0.0 and next = ref 0 in
    let awaiting () =
      let a = ref 0 in
      for i = 0 to nconn - 1 do
        if open_.(i) then a := !a + counts.(i) - replies.(i)
      done;
      !a
    in
    while (!next < n || awaiting () > 0) && now () < hard_stop do
      let timeout = if !next < n then Float.max 0.0 (start +. reqs.(!next).due -. now ()) else 0.05 in
      let live = List.filter (fun i -> open_.(i)) (List.init nconn Fun.id) in
      let ready =
        match Unix.select (List.map (fun i -> fds.(i)) live) [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun ci ->
          if List.mem fds.(ci) ready then
            match Unix.read fds.(ci) chunk 0 (Bytes.length chunk) with
            | 0 -> open_.(ci) <- false
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> open_.(ci) <- false
            | got ->
                let arrival = now () in
                Framing.Decoder.feed decoders.(ci) chunk 0 got;
                let rec take_frames () =
                  match Framing.Decoder.next decoders.(ci) with
                  | Some payload ->
                      frames.(ci) := (arrival, payload) :: !(frames.(ci));
                      replies.(ci) <- replies.(ci) + 1;
                      take_frames ()
                  | None -> ()
                in
                take_frames ())
        live;
      let t = now () in
      mark t;
      while !next < n && start +. reqs.(!next).due <= t do
        let r = reqs.(!next) in
        if open_.(r.conn) then begin
          Serve.Client.send conns.(r.conn) (Wire.Client_query (cq r));
          sent.(r.conn) := (now (), r) :: !(sent.(r.conn));
          counts.(r.conn) <- counts.(r.conn) + 1
        end;
        lag_max := Float.max !lag_max (now () -. (start +. r.due));
        incr next
      done
    done;
    let final = steal_ticks () in
    Array.iteri (fun j m -> if m < 0 then marks.(j) <- final) marks;
    let win =
      {
        w_requests = n;
        w_good = [];
        w_degraded = 0;
        w_wrong = 0;
        w_shed = 0;
        w_lost = 0;
        w_lag_max = !lag_max;
        w_steal = Array.init slices (fun j -> marks.(j + 1) - marks.(j));
      }
    in
    (* replay each connection's timeline: a reply can only belong to a
       request sent before it arrived *)
    for ci = 0 to nconn - 1 do
      let outs = Stats.Outstanding.create () in
      let pending = ref (List.rev !(sent.(ci))) in
      List.iter
        (fun (arrival, payload) ->
          let rec admit () =
            match !pending with
            | (t, r) :: rest when t <= arrival ->
                Stats.Outstanding.push outs r;
                pending := rest;
                admit ()
            | _ -> ()
          in
          admit ();
          match Wire.decode_response payload with
          | Wire.Client_answer a -> (
              let got = signature a.Wire.ca_answers in
              let fits r = r.k = a.Wire.ca_k && (a.Wire.ca_degraded || same_ranking got (expected r)) in
              match Stats.Outstanding.answer outs fits with
              | Some (r, _) ->
                  if a.Wire.ca_degraded then win.w_degraded <- win.w_degraded + 1
                  else win.w_good <- (r, arrival -. (start +. r.due), a.Wire.ca_elapsed_s) :: win.w_good
              | None ->
                  ignore (Stats.Outstanding.answer outs (fun r -> r.k = a.Wire.ca_k));
                  win.w_wrong <- win.w_wrong + 1)
          | Wire.Shed _ -> win.w_shed <- win.w_shed + 1
          | _ -> win.w_wrong <- win.w_wrong + 1
          | exception e -> fail_op ("undecodable reply: " ^ Printexc.to_string e))
        (List.rev !(frames.(ci)))
    done;
    win.w_lost <- n - List.length win.w_good - win.w_degraded - win.w_wrong - win.w_shed;
    if win.w_lost < 0 then fail_op "more replies than requests";
    win.w_lost <- max 0 win.w_lost;
    win
  in
  (* A part: warm-up, the closed loop, then the high-rate window with
     calibrations just before and just after it. *)
  let measure_part i (daemon, conns) =
    warm_up conns;
    let decks, closed_calibs = closed_loop conns closed_rngs.(i) (closed_s /. pf) in
    let before = List.init 5 (fun _ -> calibrate ()) in
    let high = run_window conns high_reqs.(i) in
    let after = List.init 5 (fun _ -> calibrate ()) in
    calibs := closed_calibs @ before @ after @ !calibs;
    let rss_kb = List.fold_left (fun a p -> a + vm_hwm_kb p) 0 (daemon.pid :: children_of daemon.pid) in
    Array.iter Serve.Client.close conns;
    stop_daemon daemon;
    (decks, high, rss_kb)
  in
  let results = List.init parts (fun i -> measure_part i (if i = 0 then first_front else start_front ())) in
  (* Steal, the hypervisor running someone else on this machine's
     processors, stalls the front door and its workers while they wait on
     each other, far beyond its share of the time; the calibration cannot
     see it. The figures come from the half of the decks, and of the
     goodput slices, during which the host stole least. *)
  (* The timings are taken to the reference speed by the median of all
     the run's calibrations: the front door and its workers share both
     processors, and the few calibrations beside one deck or one part
     track their speed less well than they scatter. *)
  let f = speed_factor !calibs in
  let results =
    List.map
      (fun (decks, high, rss) ->
        (List.map (fun (s, lat) -> (s, List.map (fun (l, e, c) -> (l *. f, l, e, c)) lat)) decks, high, rss))
      results
  in
  let decks = List.concat_map (fun (d, _, _) -> d) results in
  let kept = Stats.quieter_half fst decks in
  let closed = List.concat_map snd kept in
  let highs = List.map (fun (_, h, _) -> h) results in
  List.iteri
    (fun i (d, h, _) ->
      let c = List.concat_map snd d in
      let a = Array.of_list (List.map (fun (l, _, _, _) -> l) c) and r = Array.of_list (List.map (fun (_, l, _, _) -> l) c) in
      Printf.printf "part %d: closed p50 %.3f ms (%.3f as measured), %d decks, steal %.1f ticks/s; high answered %d of %d\n"
        i (Stats.percentile a 50.0) (Stats.percentile r 50.0) (List.length d)
        (mean (List.map fst d)) (List.length h.w_good) h.w_requests)
    results;
  Printf.printf "closed loop: %d of %d decks kept, steal up to %.1f ticks/s (all: up to %.1f)\n" (List.length kept)
    (List.length decks) (List.fold_left (fun a (s, _) -> Float.max a s) 0.0 kept)
    (List.fold_left (fun a (s, _) -> Float.max a s) 0.0 decks);
  let high =
    let ws = highs in
    {
      w_requests = List.fold_left (fun a w -> a + w.w_requests) 0 ws;
      w_good = List.concat_map (fun w -> w.w_good) ws;
      w_degraded = List.fold_left (fun a w -> a + w.w_degraded) 0 ws;
      w_wrong = List.fold_left (fun a w -> a + w.w_wrong) 0 ws;
      w_shed = List.fold_left (fun a w -> a + w.w_shed) 0 ws;
      w_lost = List.fold_left (fun a w -> a + w.w_lost) 0 ws;
      w_lag_max = List.fold_left (fun a w -> Float.max a w.w_lag_max) 0.0 ws;
      w_steal = [||];
    }
  in
  let rss_kb = List.fold_left (fun a (_, _, r) -> max a r) 0 results in
  (* Over capacity a Shed or a tagged partial answer is the front door
     doing its job: neither fails, neither counts toward goodput. *)
  List.iter (fun _ -> ok_op ()) high.w_good;
  for _ = 1 to high.w_degraded + high.w_shed do ok_op () done;
  for _ = 1 to high.w_wrong do wrong_answer "served at high rate answer" done;
  for _ = 1 to high.w_lost do fail_op "served at high rate: no reply" done;
  put_calibration !calibs;
  List.iter
    (fun (q, k) ->
      let a = Array.of_list (List.filter_map (fun (l, _, _, c) -> if c = (q, k) then Some l else None) closed) in
      if Array.length a > 0 then
        Printf.printf "query %s k=%d: %d closed-loop answers, p50 %.3f ms, p90 %.3f ms\n" queries.(q).id k (Array.length a)
          (Stats.percentile a 50.0) (Stats.percentile a 90.0))
    (List.sort_uniq compare (Array.to_list deck));
  put_latency ~tail:(jfloat ctx.w [ "tail_percentile" ]) (List.map (fun (l, _, _, _) -> l) closed);
  (let a = Array.of_list (List.map (fun (_, l, _, _) -> l) closed) in
   Printf.printf "closed loop as measured: p50 %.3f ms, p%g %.3f ms\n" (Stats.percentile a 50.0)
     (jfloat ctx.w [ "tail_percentile" ]) (Stats.percentile a (jfloat ctx.w [ "tail_percentile" ])));
  let in_limit = List.length (List.filter (fun (_, l, _) -> l <= limit_s) high.w_good) in
  (* goodput: answers within the limit per one-second slice of the high
     window (by due time), at the reference speed, mean over the
     quieter half of the slices of all parts *)
  let per_slice =
    List.concat_map
      (fun h ->
        let a = Array.make slices 0.0 in
        List.iter
          (fun (r, l, _) ->
            let i = int_of_float (r.due /. part_s *. float_of_int slices) in
            if l <= limit_s && i < slices then a.(i) <- a.(i) +. (float_of_int slices /. part_s /. f))
          h.w_good;
        List.init slices (fun i -> (h.w_steal.(i), a.(i))))
      highs
  in
  let quiet_slices = Stats.quieter_half fst per_slice in
  Printf.printf "goodput: %d of %d one-second slices kept, steal up to %d ticks (all: up to %d)\n"
    (List.length quiet_slices) (List.length per_slice) (List.fold_left (fun a (s, _) -> max a s) 0 quiet_slices)
    (List.fold_left (fun a (s, _) -> max a s) 0 per_slice);
  put "goodput_per_s" (mean (List.map snd quiet_slices));
  put "peak_rss_mb" (float_of_int rss_kb /. 1024.0);
  put "index_bytes_per_xml_byte" (float_of_int (tbl_bytes coord) /. float_of_int (xml_bytes (List.to_seq docs)));
  let shed_share = per high.w_requests (float_of_int high.w_shed) in
  Printf.printf "high: %d requests, %d answered (%d within %.0f ms), %d shed, %d partial, %d lost\n"
    high.w_requests (List.length high.w_good) in_limit (ms limit_s) high.w_shed high.w_degraded high.w_lost;
  if high.w_good <> [] then begin
    let a = Array.of_list (List.map (fun (_, l, _) -> ms l) high.w_good) in
    Printf.printf "high: answered %.3f/s, latency p10 %.1f p50 %.1f p90 %.1f ms\n"
      (float_of_int (Array.length a) /. high_s) (Stats.percentile a 10.0) (Stats.percentile a 50.0)
      (Stats.percentile a 90.0)
  end;
  Printf.printf "goodput_qps as measured: %.3f  shed_share: %.4f  generator lag max: %.3f ms\n"
    (float_of_int in_limit /. high_s) shed_share (ms high.w_lag_max);
  (* per-layer *)
  put "serve.shed_share_high" shed_share;
  put "loadgen.lag_max_ms" (ms high.w_lag_max);
  put "serve.eval_ms" (mean (List.map (fun (_, _, e, _) -> e) closed));
  put "serve.wait_transport_ms" (mean (List.map (fun (_, l, e, _) -> l -. e) closed));
  let all_mat = Hashtbl.fold (fun _ l acc -> l @ acc) mat_ms [] in
  put "materialize_p50_ms" (Stats.median (Array.of_list all_mat));
  Array.iter
    (fun (q : Queries.t) ->
      put ("rpl.materialize_ms." ^ q.id) (Stats.median (Array.of_list (Option.value ~default:[] (Hashtbl.find_opt mat_ms q.id)))))
    queries;
  if ctx.trace then begin
    (* In-process replay of the closed-loop deck through Supervisor.query:
       alternate blocks untraced and traced; spans and counters of the
       traced blocks give the shard and topk layers. *)
    let replay =
      let order = Array.copy deck in
      Prng.shuffle (Prng.split rng) order;
      Array.map (fun (q, k) -> { id = 0; q; k; due = 0.0; conn = 0 }) order
    in
    let acc = new_acc () in
    let untraced = ref (0.0, 0.0) and traced = ref (0.0, 0.0) in
    let block = 8 and i = ref 0 and spent = ref 0.0 in
    let c0 = snapshot () in
    let sup = Supervisor.create coord in
    Fun.protect ~finally:(fun () -> Supervisor.close sup) (fun () ->
      if not (Supervisor.await_healthy ~timeout_s:30.0 sup) then fail_op "replay workers never became healthy";
      while !spent < ctx.seconds /. 2.0 || !i < 2 * block do
        let is_traced = !i / block mod 2 = 1 in
        Span.set_enabled is_traced;
        let r = replay.(!i mod Array.length replay) in
        let q = queries.(r.q) in
        let t0 = now () in
        (match
           traced_call ~traced:is_traced acc (fun () ->
               Span.with_ ~name:"bench.supervisor.query" ~attrs:[ ("q", q.id) ] (fun () ->
                   Supervisor.query sup ~k:r.k q.nexi))
         with
        | exception e -> fail_op ("replay " ^ q.id ^ ": " ^ Printexc.to_string e)
        | res, words ->
            if is_traced then
              List.iter
                (fun (rep : Shard.shard_report) ->
                  Option.iter (fun m -> note_method acc (method_name m) (words /. float_of_int shards)) rep.r_method)
                res.Shard.reports;
            if res.Shard.degraded then fail_op ("replay " ^ q.id ^ ": degraded")
            else if not (same_ranking (signature res.Shard.answers) (expected r)) then wrong_answer ("replay " ^ q.id)
            else ok_op ());
        let dt = now () -. t0 in
        let cell = if is_traced then traced else untraced in
        cell := (fst !cell +. 1.0, snd !cell +. dt);
        spent := !spent +. dt;
        incr i
      done);
    Span.set_enabled false;
    let c1 = snapshot () in
    put_query_layers acc;
    let roots = Span.roots () in
    (* scatter: a supervised query's time not covered by the workers'
       own evaluation spans (dispatch, wire, waiting, merge) *)
    let worker = String.length "shard.query." in
    let is_worker n = String.length n > worker && String.sub n 0 worker = "shard.query." in
    let scatter = ref [] in
    List.iter
      (iter_spans (fun s ->
           if s.Span.name = "supervisor.query" then begin
             let evals = ref [] in
             iter_spans (fun c -> if is_worker c.Span.name then evals := (c.Span.start_s, c.Span.seconds) :: !evals) s;
             let lo = s.Span.start_s in
             scatter := ms (s.Span.seconds -. Stats.covered ~lo ~hi:(lo +. s.Span.seconds) !evals) :: !scatter
           end))
      roots;
    put "shard.scatter_ms" (mean !scatter);
    put "shard.worker_eval_ms"
      (let total = ref 0.0 and c = ref 0 in
       List.iter
         (iter_spans (fun s ->
              if is_worker s.Span.name then begin
                total := !total +. s.Span.seconds;
                incr c
              end))
         roots;
       if !c = 0 then 0.0 else ms !total /. float_of_int !c);
    let traced_queries = fst !traced in
    put "shard.early_termination_ratio"
      (if traced_queries > 0.0 then delta acc "shard.early_terminations" /. (traced_queries *. float_of_int shards)
       else 0.0);
    put "supervisor.restarts" (float_of_int (c1.(counter_index "supervisor.restarts") - c0.(counter_index "supervisor.restarts")));
    put "supervisor.kills" (float_of_int (c1.(counter_index "supervisor.kills") - c0.(counter_index "supervisor.kills")));
    put_overhead ~untraced:!untraced ~traced:!traced;
    let sh = Shard.open_ coord in
    (* Workers parse and translate inside their evaluation without a
       span of their own; time the same calls on the same shard indexes
       here, over the replayed queries. *)
    let indexes = List.filter_map (fun (i : Shard.shard_info) -> Shard.index_of sh i.name) (Shard.shards sh) in
    let translate_ms =
      List.init (min !i (Array.length replay)) (fun j ->
          let nexi = queries.(replay.(j).q).nexi in
          let t0 = now () in
          List.iter
            (fun idx ->
              Span.with_ ~name:"bench.nexi.translate" (fun () ->
                  ignore
                    (Trex.Translate.translate ~summary:(Trex.Index.summary idx)
                       ~normalize:(Trex.Index.normalize_term idx) (Trex.Nexi_parser.parse nexi))))
            indexes;
          ms (now () -. t0) /. float_of_int (max 1 (List.length indexes)))
    in
    put "nexi.translate_ms" (mean translate_ms);
    put_bytes
      (List.filter_map
         (fun (i : Shard.shard_info) ->
           Option.map
             (fun idx ->
               let env = Trex.Index.env idx in
               {
                 Trex.elements_bytes = Trex.Index.elements_bytes idx;
                 postings_bytes = Trex.Index.postings_bytes idx;
                 rpls_bytes = Trex.Env.table_bytes env "rpls";
                 erpls_bytes = Trex.Env.table_bytes env "erpls";
               })
             (Shard.index_of sh i.name))
         (Shard.shards sh));
    Shard.close sh
  end

(* ===== ingest-mixed ===== *)

let ingest_mixed ctx =
  let k = jint ctx.w [ "k" ] and batch = jint ctx.w [ "batch_docs" ] in
  let slice = jfloat ctx.w [ "query_slice_s" ] in
  let ieee, _ = corpus_sizes () in
  let queries = Queries.for_collection Queries.Ieee in
  let dir = Filename.concat ctx.root "ieee" in
  let mat_ms : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  let lists_ready e (q : Queries.t) =
    let tr = Trex.translate e (Trex.parse e q.nexi) in
    let avail =
      Strategy.available (Trex.index e) ~sids:(Trex.Translate.all_sids tr) ~terms:(Trex.Translate.all_terms tr)
    in
    List.mem Strategy.Ta_method avail && List.mem Strategy.Merge_method avail
  in
  (* Materialize the five queries in Table-1 order, returning those that
     succeeded with the number of their lists the build reused instead
     of rebuilding. *)
  let materialize_all ~record e =
    List.filter_map
      (fun (q : Queries.t) ->
        let t0 = now () in
        let outcome =
          try Ok (Span.with_ ~name:"bench.trex.materialize" ~attrs:[ ("q", q.id) ] (fun () -> Trex.materialize e q.nexi))
          with ex -> Error ex
        in
        if record then
          Hashtbl.replace mat_ms q.id (ms (now () -. t0) :: Option.value ~default:[] (Hashtbl.find_opt mat_ms q.id));
        match outcome with
        | Ok report ->
            ok_op ();
            Some (q, report.Trex.Rpl.pairs_reused)
        | Error ex ->
            fail_op (Printf.sprintf "materialize %s: %s" q.id (Printexc.to_string ex));
            None)
      queries
  in
  (* ...and that the lists of each are still there afterwards: a failed
     build quarantines the shared RPL/ERPL tables. *)
  let check_lists e built =
    List.iter
      (fun ((q : Queries.t), _) ->
        if lists_ready e q then ok_op () else fail_op ("lists of " ^ q.id ^ " lost after a later build failed"))
      built
  in
  let setup () =
    rm_rf ctx.root;
    mkdir_p ctx.root;
    let t0 = now () in
    let env = Trex.Env.on_disk dir in
    let e = Trex.build ~env ~alias:ieee.alias (ieee.docs ()) in
    Trex.Env.flush ~sync:true env;
    ok_op ();
    let built = materialize_all ~record:false e in
    let t = now () -. t0 in
    check_lists e built;
    (t, (env, e))
  in
  let setup_times, (env, e) = repeated_setup setup (fun (env, _) -> Trex.Env.close env) in
  put_setup setup_times;
  let xml = ref (xml_bytes (ieee.docs ())) in
  let rng = Prng.create ctx.seed in
  let q_acc = new_acc () and w_acc = new_acc () in
  let samples = ref [] and docs = ref 0 and traced_docs = ref 0 and doc_ms = ref [] in
  let write_time = ref 0.0 and timed = ref 0.0 and batch_no = ref 0 in
  let untraced = ref (0.0, 0.0) and traced = ref (0.0, 0.0) in
  let run_batches e rng seconds =
    timed := 0.0;
    let first = !batch_no in
    while !timed < seconds || (ctx.trace && !batch_no - first < 2) do
      let is_traced = ctx.trace && !batch_no mod 2 = 1 in
      Span.set_enabled is_traced;
      (* Each batch comes from its own generator seed, so the topics of
         the new documents vary batch by batch rather than per run. *)
      let batch_seed = (ctx.seed * 7919) + (!batch_no * 104729) + 17 in
      let new_docs = List.of_seq ((Gen.ieee ~doc_count:batch ~seed:batch_seed ()).docs ()) in
      (* write path: a batch of documents, then fresh lists for all five *)
      let t_batch = now () in
      List.iter
        (fun (name, x) ->
          let t0 = now () in
          (match
             traced_call ~traced:is_traced w_acc (fun () ->
                 Span.with_ ~name:"bench.trex.add_document" (fun () ->
                     Trex.add_document e ~name:(Printf.sprintf "ingest-%d-%d-%s" ctx.seed !batch_no name) ~xml:x))
           with
          | _ ->
              ok_op ();
              incr docs;
              if is_traced then incr traced_docs;
              xml := !xml + String.length x
          | exception ex -> fail_op ("add_document: " ^ Printexc.to_string ex));
          doc_ms := ms (now () -. t0) :: !doc_ms)
        new_docs;
      let built, _ = traced_call ~traced:is_traced w_acc (fun () -> materialize_all ~record:true e) in
      let batch_write = now () -. t_batch in
      write_time := !write_time +. batch_write;
      let cell = if is_traced then traced else untraced in
      cell := (fst !cell +. float_of_int batch, snd !cell +. batch_write);
      check_lists e built;
      (* A list the build reused predates this batch, so it was scored
         with the collection statistics of before the batch: add_document
         drops only the lists of terms the new document contains. *)
      let stale = List.filter_map (fun ((q : Queries.t), reused) -> if reused > 0 then Some q.id else None) built in
      (* read path: seeded rounds of the five for a fixed slice *)
      let answers = ref [] and q_time = ref 0.0 in
      let rec rounds () =
        let order = Array.of_list queries in
        Prng.shuffle rng order;
        Array.iter
          (fun (q : Queries.t) ->
            let t0 = now () in
            match
              traced_call ~traced:is_traced q_acc (fun () ->
                  Span.with_ ~name:"bench.trex.query" ~attrs:[ ("q", q.id) ] (fun () -> Trex.query e ~k q.nexi))
            with
            | exception ex ->
                q_time := !q_time +. (now () -. t0);
                fail_op (Printf.sprintf "query %s: %s" q.id (Printexc.to_string ex))
            | o, words ->
                let dt = now () -. t0 in
                q_time := !q_time +. dt;
                if is_traced then note_method q_acc (method_name o.strategy.method_used) words;
                samples := ms dt :: !samples;
                answers := (q, o) :: !answers)
          order;
        if !q_time < slice then rounds ()
      in
      rounds ();
      timed := !timed +. batch_write +. !q_time;
      (let lat = Array.of_list (List.filteri (fun i _ -> i < List.length !answers) !samples) in
       Printf.printf "batch %d: %d docs, write %.0f ms, lists built for %d of 5 (stale %s), %d queries p50 %.2f ms, methods %s\n"
         !batch_no (List.length new_docs) (ms batch_write) (List.length built) (String.concat "," stale)
         (List.length !answers) (Stats.percentile lat 50.0)
         (String.concat "," (List.sort_uniq compare (List.map (fun (_, (o : Trex.outcome)) -> method_name o.strategy.method_used) !answers))));
      Span.set_enabled false;
      (* reference: ERA over the same data, computed outside the timing *)
      let refs = Hashtbl.create 8 in
      List.iter
        (fun ((q : Queries.t), (o : Trex.outcome)) ->
          if o.degraded then fail_op (Printf.sprintf "query %s: degraded" q.id)
          else begin
            let expected =
              match Hashtbl.find_opt refs q.id with
              | Some r -> r
              | None ->
                  let r =
                    if o.strategy.method_used = Strategy.Era_method then signature o.strategy.answers
                    else signature (Trex.query e ~k ~method_:Strategy.Era_method q.nexi).strategy.answers
                  in
                  Hashtbl.replace refs q.id r;
                  r
            in
            if same_ranking (signature o.strategy.answers) expected then ok_op ()
            else if o.strategy.method_used <> Strategy.Era_method && List.mem q.id stale then
              fail_op
                (Printf.sprintf "ranking differs from the reference: query %s over lists kept from before the batch" q.id)
            else wrong_answer ("query " ^ q.id)
          end)
        !answers;
      incr batch_no
    done;
    Span.set_enabled false
  in
  if ctx.trace then begin
    run_batches e rng ctx.seconds;
    put_bytes [ Trex.table_sizes e ];
    Trex.Env.close env
  end
  else begin
    (* the writes of each part reach the next through the files: every
       part attaches the environment afresh and closes it cleanly *)
    Trex.Env.close env;
    let parts = jint ctx.w [ "process_parts" ] in
    let streams = Array.init parts (fun _ -> Prng.split rng) in
    in_parts parts
      (fun i ->
        let env = Trex.Env.on_disk dir in
        run_batches (Trex.attach ~env ()) streams.(i) (ctx.seconds /. float_of_int parts);
        Trex.Env.close env;
        (!samples, !docs, !doc_ms, !write_time, !batch_no, !xml, Hashtbl.fold (fun q l acc -> (q, l) :: acc) mat_ms []))
      (fun (s, d, dm, wt, b, x, m) ->
        samples := s;
        docs := d;
        doc_ms := dm;
        write_time := wt;
        batch_no := b;
        xml := x;
        List.iter (fun (q, l) -> Hashtbl.replace mat_ms q l) m)
  end;
  put_latency ~tail:(jfloat ctx.w [ "tail_percentile" ]) !samples;
  let docs_per_s = float_of_int !docs /. !write_time in
  put "goodput_per_s" docs_per_s;
  put "index_bytes_per_xml_byte" (float_of_int (tbl_bytes ctx.root) /. float_of_int !xml);
  put "peak_rss_mb" (peak_rss_mb ());
  let all_mat = Hashtbl.fold (fun _ l acc -> l @ acc) mat_ms [] in
  Printf.printf "ingest: %d docs in %d batches, %.3f docs/s; materialize p50 %.3f ms\n" !docs !batch_no docs_per_s
    (Stats.median (Array.of_list all_mat));
  (* per-layer *)
  put "ingest_docs_per_s" docs_per_s;
  put "materialize_p50_ms" (Stats.median (Array.of_list all_mat));
  List.iter
    (fun (q : Queries.t) ->
      put ("rpl.materialize_ms." ^ q.id) (Stats.median (Array.of_list (Option.value ~default:[] (Hashtbl.find_opt mat_ms q.id)))))
    queries;
  put "invindex.add_document_ms" (mean !doc_ms);
  put_query_layers q_acc;
  put "storage.pager.physical_writes_per_doc" (per !traced_docs (delta w_acc "pager.physical_writes"));
  put "storage.pager.fsyncs_per_doc" (per !traced_docs (delta w_acc "pager.fsyncs"));
  put "storage.bptree.node_splits_per_doc" (per !traced_docs (delta w_acc "bptree.node_splits"));
  if ctx.trace then put_overhead ~untraced:!untraced ~traced:!traced

(* ===== command line ===== *)

let workloads = [ ("era-unindexed", era_unindexed); ("served-topk", served_topk); ("ingest-mixed", ingest_mixed) ]

let metric_specs key =
  List.map
    (fun m ->
      let s k = match Json.member k m with Some (Json.String v) -> v | _ -> die "BENCHMARK.json: bad %s entry" key in
      (s "name", s "unit"))
    (jlist !bench [ key ])

let emit ~trace =
  let specs = metric_specs (if trace then "per_layer" else "end_to_end") in
  let metrics =
    List.map
      (fun (name, unit) ->
        if not (Stats.valid_name name) then die "invalid metric name %S" name;
        match Hashtbl.find_opt results name with
        | Some v when Float.is_finite v -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])
        | Some _ -> die "metric %s is not finite" name
        | None -> die "metric %s was not measured" name)
      specs
  in
  Printf.printf "\n%-42s %18s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (name, unit) -> Printf.printf "%-42s %18.6f  %s\n" name (Hashtbl.find results name) unit)
    specs;
  if Hashtbl.length failures > 0 then begin
    Printf.printf "\nfailures by name (of %d attempted operations):\n" !attempted;
    Hashtbl.iter (fun name n -> Printf.printf "  %5d  %s\n" n name) failures
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!wrong = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]))

let run_one args =
  let get key = match arg_value key args with Some v -> v | None -> die "missing %s" key in
  let workload = get "--workload" in
  let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> die "--seed must be an integer" in
  let seconds = match float_of_string_opt (get "--seconds") with Some s when s > 0.0 -> s | _ -> die "bad --seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> die "unknown workload %s" workload in
  let ctx =
    {
      workload;
      seed;
      seconds;
      trace;
      root = Printf.sprintf "perfbench/out/run-%s-%d" workload (Unix.getpid ());
      w = jpath !spec [ "workloads"; workload ];
    }
  in
  at_exit (fun () ->
      kill_live_daemons ();
      try rm_rf ctx.root with _ -> ());
  Span.reset ();
  let c0 = snapshot () in
  (match run ctx with
  | () -> ()
  | exception e ->
      Printf.eprintf "trexbench: %s did not complete: %s\n%s%!" workload (Printexc.to_string e)
        (Printexc.get_backtrace ());
      exit 2);
  (* storage recovery over the whole run, set-up included *)
  let c1 = snapshot () in
  let moved name = float_of_int (c1.(counter_index name) - c0.(counter_index name)) in
  put "storage.env.quarantines" (moved "env.quarantines");
  put "storage.manifest.rolled_back" (moved "manifest.rolled_back");
  let failed_share = per !attempted (float_of_int !failed) in
  put "failed_share" failed_share;
  if trace then begin
    let roots = Span.roots () in
    List.iter (fun m -> put ("topk.eval_ms." ^ m) (span_mean_ms roots ("eval." ^ m))) [ "ERA"; "TA"; "Merge" ];
    if not (Hashtbl.mem results "nexi.translate_ms") then
      put "nexi.translate_ms" (span_mean_ms roots "parse+translate");
    print_self_times roots;
    export_trace ~workload ~seed roots;
    (* layers this workload does not exercise read 0 *)
    List.iter (fun (name, _) -> if not (Hashtbl.mem results name) then put name 0.0) (metric_specs "per_layer")
  end;
  emit ~trace;
  exit (if !wrong = 0 then 0 else 1)

(* Ten seeds per workload, the spread of each end-to-end metric against
   its bound: the steadiness check a benchmark change must pass. *)
let steady args =
  let runs = Option.value ~default:10 (Option.bind (arg_value "--runs" args) int_of_string_opt) in
  let seed0 = Option.value ~default:1 (Option.bind (arg_value "--seed" args) int_of_string_opt) in
  let seconds = jint !bench [ "run_seconds" ] in
  let only = List.filter_map (fun (k, v) -> if k = "--workload" then Some v else None)
      (let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in pairs args) in
  let names = List.map (fun w -> jstr (jpath w [ "name" ])) (jlist !bench [ "workloads" ]) in
  let names = if only = [] then names else List.filter (fun n -> List.mem n only) names in
  let bounds =
    List.map (fun m -> (jstr (jpath m [ "name" ]), jfloat m [ "bound" ])) (jlist !bench [ "end_to_end" ])
  in
  let ok = ref true in
  List.iter
    (fun wl ->
      let values : (string, float list) Hashtbl.t = Hashtbl.create 8 in
      for i = 0 to runs - 1 do
        let seed = seed0 + i in
        let t0 = now () in
        let ic =
          Unix.open_process_args_in Sys.executable_name
            [| Sys.executable_name; "--workload"; wl; "--seed"; string_of_int seed; "--seconds";
               string_of_int seconds; "--trace"; "0" |]
        in
        let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
        let status = Unix.close_process_in ic in
        let last = List.nth lines (List.length lines - 1) in
        (match (status, Json.parse_result last) with
        | Unix.WEXITED 0, Ok j ->
            let f = match Json.member "failed" j with Some (Json.Int f) -> f | _ -> -1 in
            Printf.printf "%s seed %d: %.1f s wall, failed %d:%s\n%!" wl seed (now () -. t0) f
              (String.concat ""
                 (List.map (fun (name, _) -> Printf.sprintf " %s=%.4g" name (jfloat j [ "metrics"; name; "value" ])) bounds));
            List.iter
              (fun (name, _) ->
                let v = jfloat j [ "metrics"; name; "value" ] in
                Hashtbl.replace values name (v :: Option.value ~default:[] (Hashtbl.find_opt values name)))
              bounds
        | _ ->
            ok := false;
            Printf.printf "%s seed %d: run failed\n%!" wl seed)
      done;
      Printf.printf "\n%s: %-26s %12s %12s %12s %8s %8s\n" wl "metric" "median" "q1" "q3" "spread" "bound";
      List.iter
        (fun (name, bound) ->
          match Hashtbl.find_opt values name with
          | Some l when List.length l >= 2 ->
              let a = Array.of_list l in
              let spread = Stats.quartile_spread a in
              let q = Stats.quartiles a in
              let verdict =
                if name = "setup_s" then "(setup)"
                else if spread >= bound then begin
                  ok := false;
                  "OVER BOUND"
                end
                else if spread >= bound /. 3.0 then "over bound/3"
                else "steady"
              in
              Printf.printf "  %-34s %12.4f %12.4f %12.4f %8.4f %8.3f %s\n" name (Stats.python_median a)
                (List.nth q 0) (List.nth q 2) spread bound verdict
          | _ -> ())
        bounds)
    names;
  exit (if !ok then 0 else 1)

let () =
  Printexc.record_backtrace true;
  let args = List.tl (Array.to_list Sys.argv) in
  if not (Sys.file_exists "perfbench/spec.json" && Sys.file_exists "BENCHMARK.json") then
    die "run from the repository root (perfbench/spec.json and BENCHMARK.json)";
  spec := load_json "perfbench/spec.json";
  bench := load_json "BENCHMARK.json";
  match args with "steady" :: rest -> steady rest | _ -> run_one args
