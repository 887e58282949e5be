(* Tests for the benchmark's statistics and load-schedule code. *)

module S = Perfbench_stats.Stats

let close_to = Alcotest.float 1e-12

let ladder = [ 50.0; 75.0; 80.0; 90.0; 95.0; 97.5; 99.0; 99.5; 99.9 ]

let test_percentile () =
  let v = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.check close_to "p50 of 1..10" 5.0 (S.percentile v 50.0);
  Alcotest.check close_to "p90 of 1..10" 9.0 (S.percentile v 90.0);
  Alcotest.check close_to "p100 of 1..10" 10.0 (S.percentile v 100.0);
  Alcotest.check close_to "p0 is the minimum" 1.0 (S.percentile v 0.0);
  Alcotest.(check int) "rank of p80 over 50 is exact" 40 (S.rank ~n:50 80.0)

let test_tail () =
  let pick n = S.tail_percentile ~ladder n in
  Alcotest.(check (option (float 0.0))) "too few samples" None (pick 19);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (pick 20);
  Alcotest.(check (option (float 0.0))) "50 samples: p80" (Some 80.0) (pick 50);
  Alcotest.(check (option (float 0.0))) "99 samples: p80" (Some 80.0) (pick 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (pick 100);
  Alcotest.(check (option (float 0.0))) "400 samples: p97.5" (Some 97.5) (pick 400);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (pick 1000);
  (* the rule itself, over every size: at least ten beyond, and the next
     rung up would have fewer *)
  for n = 20 to 3000 do
    match pick n with
    | None -> Alcotest.fail "a tail exists from 20 samples on"
    | Some p ->
        if S.samples_beyond ~n p < 10 then Alcotest.fail "fewer than ten beyond";
        List.iter
          (fun q ->
            if q > p && S.samples_beyond ~n q >= 10 then
              Alcotest.fail "a higher rung also qualifies")
          ladder
  done

(* Expected values computed with Python's statistics.quantiles(d, n=4)
   and statistics.median. *)
let test_quartiles () =
  let check name data expected =
    Alcotest.(check (list close_to)) name expected (S.quartiles (Array.of_list data))
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) [ 2.75; 5.5; 8.25 ];
  check "four unsorted" [ 3.5; 1.25; 9.0; 4.0 ] [ 1.8125; 3.75; 7.75 ];
  check "constant" [ 5.0; 5.0; 5.0 ] [ 5.0; 5.0; 5.0 ];
  check "two samples" [ 1.0; 2.0 ] [ 0.75; 1.5; 2.25 ];
  Alcotest.check close_to "spread of 1..10" (5.5 /. 5.5)
    (S.quartile_spread (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close_to "spread of four" ((7.75 -. 1.8125) /. 3.75)
    (S.quartile_spread [| 3.5; 1.25; 9.0; 4.0 |]);
  Alcotest.check close_to "constant has no spread" 0.0
    (S.quartile_spread [| 2.0; 2.0; 2.0; 2.0 |])

let test_schedule () =
  let sched seed =
    S.poisson_schedule (Trex_util.Prng.create seed) ~rate:100.0 ~duration:20.0
  in
  let a = sched 1 and b = sched 1 and c = sched 2 in
  Alcotest.(check (array close_to)) "same seed, same schedule" a b;
  Alcotest.(check bool) "another seed, another schedule" true (a <> c);
  Alcotest.(check bool) "ascending within the window" true
    (Array.for_all (fun t -> t >= 0.0 && t < 20.0) a
    && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) < a.(i + 1))));
  let n = float_of_int (Array.length a) in
  Alcotest.(check bool) "about rate x duration arrivals" true (n > 1800.0 && n < 2200.0)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (S.valid_name n))
    [ "setup_s"; "latency_p50_ms"; "topk.eval_ms.ERA"; "rpl.materialize_ms.270"; "0x"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (S.valid_name n))
    [ ""; ".hidden"; "_x"; "with space"; "slash/name"; "p99%"; String.make 65 'a' ]

let test_covered () =
  Alcotest.check close_to "parallel children count once" 3.0
    (S.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 1.0); (1.5, 2.0) ]);
  Alcotest.check close_to "disjoint children add" 4.0
    (S.covered ~lo:0.0 ~hi:10.0 [ (1.0, 1.0); (5.0, 3.0) ]);
  Alcotest.check close_to "clipped to the parent" 1.5
    (S.covered ~lo:0.0 ~hi:2.0 [ (-1.0, 2.0); (1.5, 5.0) ])

let test_outstanding () =
  let o = S.Outstanding.create () in
  List.iter (S.Outstanding.push o) [ (1, "a"); (2, "b"); (3, "a"); (4, "b"); (5, "c") ];
  let answer sig_ = S.Outstanding.answer o (fun (_, s) -> s = sig_) in
  let pairs = Alcotest.(option (pair (pair int string) (list (pair int string)))) in
  Alcotest.check pairs "first a, nothing ahead" (Some ((1, "a"), [])) (answer "a");
  (* 2 was shed: the answer for 3 retires it *)
  Alcotest.check pairs "second a sheds b ahead" (Some ((3, "a"), [ (2, "b") ])) (answer "a");
  Alcotest.check pairs "nothing fits" None (answer "z");
  Alcotest.check pairs "c sheds 4" (Some ((5, "c"), [ (4, "b") ])) (answer "c");
  Alcotest.check pairs "all matched" None (answer "c")

let test_deck () =
  let deck = S.zipf_deck ~top:20 ~exponent:1.0 ~n:5 ~share:0.6 ~ks:(10, 1000) in
  let count f = Array.fold_left (fun a x -> if f x then a + 1 else a) 0 deck in
  Alcotest.(check (list int)) "copies per query: round(20 / i)" [ 20; 10; 7; 5; 4 ]
    (List.init 5 (fun q -> count (fun (q', _) -> q' = q)));
  Alcotest.(check (list int)) "k=10 copies: round(copies x 0.6)" [ 12; 6; 4; 3; 2 ]
    (List.init 5 (fun q -> count (fun (q', k) -> q' = q && k = 10)));
  Alcotest.(check int) "only the two k" (Array.length deck) (count (fun (_, k) -> k = 10 || k = 1000))

let test_quieter_half () =
  let items = [ ("a", 5); ("b", 1); ("c", 9); ("d", 1); ("e", 3) ] in
  Alcotest.(check (list string)) "least steal first, ties in order, larger half when odd" [ "b"; "d"; "e" ]
    (List.map fst (S.quieter_half snd items));
  Alcotest.(check (list string)) "half of four" [ "b"; "d" ]
    (List.map fst (S.quieter_half snd (List.tl items)));
  Alcotest.(check (list string)) "one stays" [ "a" ] (List.map fst (S.quieter_half snd [ ("a", 5) ]))

let test_calibration () =
  let c = S.calibration 2000 in
  let first = S.calibration_work c in
  Alcotest.(check int) "the same work every time" first (S.calibration_work c);
  Alcotest.(check int) "a fresh instance does the same work" first (S.calibration_work (S.calibration 2000));
  let a = [| 5; 3; 9; 1; 5; 0; -2; 7 |] in
  S.heapsort a;
  Alcotest.(check (array int)) "heapsort sorts" [| -2; 0; 1; 3; 5; 5; 7; 9 |] a;
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (S.calibration_work c));
  let w1 = Gc.minor_words () in
  (* a boxed float for each Gc.minor_words reading, nothing more *)
  Alcotest.(check bool) "allocates nothing" true (w1 -. w0 < 16.0)

let () =
  Alcotest.run "perfbench-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile keeps ten samples beyond" `Quick test_tail;
          Alcotest.test_case "quartile spread matches python" `Quick test_quartiles;
          Alcotest.test_case "schedule is a function of the seed" `Quick test_schedule;
          Alcotest.test_case "metric name validity" `Quick test_names;
          Alcotest.test_case "span coverage unions children" `Quick test_covered;
          Alcotest.test_case "replies match FIFO within content" `Quick test_outstanding;
          Alcotest.test_case "closed-loop deck has the Zipf counts" `Quick test_deck;
          Alcotest.test_case "calibration work is fixed and allocation-free" `Quick test_calibration;
          Alcotest.test_case "quieter half keeps the least steal" `Quick test_quieter_half;
        ] );
    ]
