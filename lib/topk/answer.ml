module Types = Trex_invindex.Types

type entry = { element : Types.element; score : float }
type t = entry list

let compare_entry a b =
  match compare b.score a.score with
  | 0 -> Types.compare_element a.element b.element
  | c -> c

let of_unsorted items =
  items
  |> List.map (fun (element, score) -> { element; score })
  |> List.sort compare_entry

(* Stable: of two equal entries the one from the earlier list comes
   first, exactly as [List.sort] over the concatenation would order them. *)
let merge2 a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
        if compare_entry x y <= 0 then go (x :: acc) a' b else go (y :: acc) a b'
  in
  go [] a b

let merge lists = List.fold_left merge2 [] lists

let rec top_k t k =
  if k <= 0 then []
  else match t with [] -> [] | e :: rest -> e :: top_k rest (k - 1)

let size = List.length

let equal ?(eps = 1e-9) a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Types.compare_element x.element y.element = 0
         && Float.abs (x.score -. y.score) <= eps)
       a b

let agree_on_top_k ?(eps = 1e-9) k a b =
  let key e = (e.element.Types.docid, e.element.Types.endpos) in
  let to_map l =
    List.fold_left
      (fun m e -> (key e, e.score) :: m)
      []
      (top_k l k)
  in
  let ma = List.sort compare (to_map a) and mb = List.sort compare (to_map b) in
  List.length ma = List.length mb
  && List.for_all2
       (fun (ka, sa) (kb, sb) -> ka = kb && Float.abs (sa -. sb) <= eps)
       ma mb

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i e ->
      Format.fprintf fmt "%2d. %a score=%.4f@," (i + 1) Types.pp_element e.element
        e.score)
    t;
  Format.fprintf fmt "@]"
