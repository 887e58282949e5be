(* The benchmark's own arithmetic: percentiles, the tail rule, the
   quartile spread, the seeded arrival schedule, span self time and the
   reply matcher of the open-loop generator. Pure code, tested by
   test_stats.ml. *)

let sorted values =
  let a = Array.copy values in
  Array.sort compare a;
  a

(* Nearest rank: the [p]-th percentile of [n] samples is the sample at
   1-based rank ceil(p·n/100). The epsilon keeps 80% of 50 at rank 40
   despite 0.8 not being exact in binary. *)
let rank ~n p =
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))))

let percentile values p =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p - 1)

let median values = percentile values 50.0

(* Samples strictly above the [p]-th percentile's rank. *)
let samples_beyond ~n p = if n = 0 then 0 else n - rank ~n p

(* The tail of a latency distribution is the highest percentile of
   [ladder] that still has at least ten samples beyond it: anything
   higher would rest on a handful of samples and not repeat. *)
let tail_percentile ?(min_beyond = 10) ~ladder n =
  List.fold_left
    (fun best p ->
      if samples_beyond ~n p >= min_beyond then
        match best with Some b when b >= p -> best | _ -> Some p
      else best)
    None ladder

(* Quartiles exactly as Python's statistics.quantiles(data, n=4) (the
   default "exclusive" method) computes them, so the spread printed here
   matches one computed with Python's statistics module. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "quartiles: need at least two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0)
    [ 1; 2; 3 ]

(* statistics.median: the mean of the two middle samples when even. *)
let python_median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Inter-quartile distance as a share of the median. *)
let quartile_spread values =
  match quartiles values with
  | [ q1; _; q3 ] -> (q3 -. q1) /. Float.abs (python_median values)
  | _ -> assert false

(* Metric names: a letter or digit first, then at most 63 more of
   letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok s

(* ---- seeded load ---- *)

(* Arrival offsets of a Poisson process at [rate] per second over
   [duration] seconds. *)
let poisson_schedule rng ~rate ~duration =
  let rec go t acc =
    let t = t -. (Float.log (1.0 -. Trex_util.Prng.float rng 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

(* ---- spans ---- *)

(* Length of the union of [intervals] (start, length) clipped to
   [lo, hi]: the part of a parent span its children cover. Children
   that ran in parallel (supervised workers) count once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, len) ->
        let a = Float.max lo s and b = Float.min hi (s +. len) in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep total cur = function
    | [] -> ( match cur with Some (a, b) -> total +. (b -. a) | None -> total)
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep total (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then sweep total (Some (ca, Float.max cb b)) rest
            else sweep (total +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0.0 None (List.sort compare clipped)

(* ---- reply matching ---- *)

(* Requests outstanding on one connection, oldest first. No reply names
   its request: the front door answers admitted requests first in, first
   out, but sends a Shed the moment it reads a request, so Sheds can
   overtake answers still queued ahead of them. An answer is therefore
   matched to the earliest outstanding request its content fits, and
   every request still ahead of that one was shed (the queue is FIFO).
   When the same query and k repeat within the gap, the answer is
   credited to the earlier request, which can only overstate its
   latency. *)
module Outstanding = struct
  type 'a t = { mutable items : 'a list }

  let create () = { items = [] }
  let push t x = t.items <- t.items @ [ x ]

  (* The matched request and the requests shed ahead of it. *)
  let answer t fits =
    let rec go ahead = function
      | [] -> None
      | x :: rest when fits x ->
          t.items <- rest;
          Some (x, List.rev ahead)
      | x :: rest -> go (x :: ahead) rest
    in
    go [] t.items
end

(* ---- processor speed ---- *)

(* A fixed piece of branchy integer work that allocates nothing: copy
   [n] pseudo-random integers, heapsort them in place, then binary-search
   each one and hash the result. The processor of a shared host runs
   this, and the engine, up to twice as slow for seconds at a time when
   neighbours are busy; timing it between the measured calls tells how
   fast the processor ran around them. It allocates nothing, so the
   engine's heap and collector cannot change its cost. *)
type calibration = { src : int array; scratch : int array }

let calibration n =
  let state = ref 777 in
  let src =
    Array.init n (fun _ ->
        state := ((!state * 1103515245) + 12345) land 0x3fffffff;
        !state)
  in
  { src; scratch = Array.make n 0 }

(* In-place heapsort of an int array; Array.sort raises (and so
   allocates) an exception per sift. *)
let heapsort (a : int array) =
  let n = Array.length a in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift 0 last
  done

let calibration_work { src; scratch } =
  let n = Array.length src in
  Array.blit src 0 scratch 0 n;
  heapsort scratch;
  let h = ref 0 in
  for i = 0 to n - 1 do
    let x = src.(i) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if scratch.(mid) < x then lo := mid + 1 else hi := mid
    done;
    h := ((!h * 31) + Hashtbl.hash (x + !lo)) land 0xffffff
  done;
  !h

(* ---- a fixed mix ---- *)

(* [n] queries in Zipf proportions with [exponent]: round(top / i^s)
   copies of the i-th (1-based), each split between the two k of [ks],
   round(copies · share) with the first. *)
let zipf_deck ~top ~exponent ~n ~share ~ks:(k_small, k_large) =
  Array.concat
    (List.init n (fun i ->
         let copies = Float.to_int (Float.round (float_of_int top /. (float_of_int (i + 1) ** exponent))) in
         let small = Float.to_int (Float.round (float_of_int copies *. share)) in
         Array.init copies (fun j -> (i, if j < small then k_small else k_large))))

(* ---- host steal ---- *)

(* The half of [items] (the larger half when odd) with the least host
   steal, by [steal], least first; equal steal keeps the given order. *)
let quieter_half steal items =
  let sorted = List.stable_sort (fun a b -> compare (steal a) (steal b)) items in
  List.filteri (fun i _ -> i < (List.length items + 1) / 2) sorted
