module Codec = Trex_util.Codec
module Metrics = Trex_obs.Metrics

(* Process-wide totals across every tree; per-tree stats are not kept. *)
let m_node_splits = Metrics.counter "bptree.node_splits"
let m_node_reads = Metrics.counter "bptree.node_reads"

(* In-memory image of a node; nodes are (de)serialized to pager pages on
   every access. Cursors keep the deserialized leaf, so scans parse each
   leaf once. *)
type node =
  | Leaf of { mutable entries : (string * string) array; mutable next : int }
  | Internal of {
      mutable keys : string array; (* separators, length = #children - 1 *)
      mutable children : int array;
    }

type t = { pager : Pager.t; mutable root : int; mutable count : int }

(* Serialized node layout: tag byte ('L'/'I'), then varint-framed
   fields. The node budget leaves room for the tag and slack. *)

let node_budget pager = Pager.page_size pager - 16
let entry_budget pager = node_budget pager / 4

let serialize_node pager node =
  let b = Codec.Buf.create ~capacity:(Pager.page_size pager) () in
  (match node with
  | Leaf { entries; next } ->
      Codec.Buf.add_raw b "L";
      Codec.Buf.add_varint b (Array.length entries);
      Array.iter
        (fun (k, v) ->
          Codec.Buf.add_string b k;
          Codec.Buf.add_string b v)
        entries;
      Codec.Buf.add_varint b next
  | Internal { keys; children } ->
      Codec.Buf.add_raw b "I";
      Codec.Buf.add_varint b (Array.length children);
      Array.iter (fun c -> Codec.Buf.add_varint b c) children;
      Array.iter (fun k -> Codec.Buf.add_string b k) keys);
  Codec.Buf.contents b

let node_size pager node = String.length (serialize_node pager node)

let write_node t id node =
  let s = serialize_node t.pager node in
  let page = Bytes.make (Pager.page_size t.pager) '\x00' in
  Bytes.blit_string s 0 page 0 (String.length s);
  Pager.write t.pager id page

let corrupt t ~page detail =
  raise (Pager.Corruption { path = Pager.path t.pager; page; detail })

(* Deserialization copies every field out of the page buffer (fresh
   tuple/array cells, and [Codec.Reader.string] substrings), so holding
   a node never aliases the pager's live cache — see Pager.read_copy for
   callers that do need raw page bytes across writes. *)
let read_node t id =
  Metrics.incr m_node_reads;
  let page = Pager.read t.pager id in
  let r = Codec.Reader.of_string (Bytes.unsafe_to_string page) in
  match
    match Codec.Reader.raw r 1 with
    | "L" ->
        let n = Codec.Reader.varint r in
        let entries =
          Array.init n (fun _ ->
              let k = Codec.Reader.string r in
              let v = Codec.Reader.string r in
              (k, v))
        in
        let next = Codec.Reader.varint r in
        Leaf { entries; next }
    | "I" ->
        let nc = Codec.Reader.varint r in
        if nc < 1 then corrupt t ~page:id "internal node with no children";
        let children = Array.init nc (fun _ -> Codec.Reader.varint r) in
        let keys = Array.init (nc - 1) (fun _ -> Codec.Reader.string r) in
        Internal { keys; children }
    | tag -> corrupt t ~page:id (Printf.sprintf "corrupt node tag %S" tag)
  with
  | node -> node
  | exception Codec.Reader.Truncated ->
      corrupt t ~page:id "truncated node encoding"
  | exception Codec.Reader.Malformed detail ->
      corrupt t ~page:id ("malformed node encoding: " ^ detail)

let create pager =
  let root = Pager.allocate pager in
  let t = { pager; root; count = 0 } in
  write_node t root (Leaf { entries = [||]; next = -1 });
  Pager.set_root pager root;
  t

let attach pager =
  let root = Pager.get_root pager in
  if root < 0 then
    raise
      (Pager.Corruption
         {
           path = Pager.path pager;
           page = -1;
           detail = "no committed root (tree creation never reached a commit)";
         });
  { pager; root; count = -1 }

let pager t = t.pager

let refresh t =
  let root = Pager.get_root t.pager in
  if root < 0 then failwith "Bptree.refresh: pager has no root";
  t.root <- root;
  t.count <- -1

(* First index i in [keys] with keys.(i) > key; the child to follow for
   [key] in an internal node. *)
let child_index keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index i in sorted [entries] with fst entries.(i) >= key. *)
let lower_bound entries key =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst entries.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find t key =
  let rec go id =
    match read_node t id with
    | Internal { keys; children } -> go children.(child_index keys key)
    | Leaf { entries; _ } ->
        let i = lower_bound entries key in
        if i < Array.length entries && fst entries.(i) = key then
          Some (snd entries.(i))
        else None
  in
  go t.root

let array_insert arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let array_remove arr i =
  let n = Array.length arr in
  let out = Array.sub arr 0 (n - 1) in
  Array.blit arr (i + 1) out i (n - 1 - i);
  out

(* Serialized sizes of one [Codec.Buf.add_varint] / [add_string] field
   (non-negative ints zig-zag to [2n]). *)
let varint_bytes n =
  let rec go z acc = if z < 0x80 then acc else go (z lsr 7) (acc + 1) in
  go (2 * n) 1

let string_bytes s = varint_bytes (String.length s) + String.length s

(* p.(i) = sum of sizes.(0 .. i-1). *)
let prefix_sums sizes =
  let p = Array.make (Array.length sizes + 1) 0 in
  Array.iteri (fun i sz -> p.(i + 1) <- p.(i) + sz) sizes;
  p

(* Split point in [lo, hi] whose halves' byte sizes are closest. Nodes
   split by bytes, not by count: with entries up to a quarter page, a
   count midpoint can leave one half of mixed-size entries larger than
   a page, while the byte-balanced cut keeps both within
   (node + largest entry) / 2. *)
let closest_cut ~lo ~hi ~left ~right =
  let gap i = abs (left i - right i) in
  let best = ref lo in
  for i = lo + 1 to hi do
    if gap i < gap !best then best := i
  done;
  !best

(* Result of inserting into a subtree: either the node fit, or it split
   and the parent must add (separator, right-page-id). *)
type split = No_split | Split of string * int

let insert t ~key ~value =
  if String.length key + String.length value > entry_budget t.pager then
    invalid_arg
      (Printf.sprintf "Bptree.insert: entry of %d bytes exceeds budget %d"
         (String.length key + String.length value)
         (entry_budget t.pager));
  let budget = node_budget t.pager in
  let rec go id =
    match read_node t id with
    | Leaf leaf ->
        let i = lower_bound leaf.entries key in
        let replaced =
          i < Array.length leaf.entries && fst leaf.entries.(i) = key
        in
        if replaced then leaf.entries.(i) <- (key, value)
        else begin
          leaf.entries <- array_insert leaf.entries i (key, value);
          if t.count >= 0 then t.count <- t.count + 1
        end;
        let node = Leaf { entries = leaf.entries; next = leaf.next } in
        if node_size t.pager node <= budget then begin
          write_node t id node;
          No_split
        end
        else begin
          let n = Array.length leaf.entries in
          let p =
            prefix_sums
              (Array.map (fun (k, v) -> string_bytes k + string_bytes v) leaf.entries)
          in
          let mid =
            closest_cut ~lo:1 ~hi:(n - 1)
              ~left:(fun s -> p.(s))
              ~right:(fun s -> p.(n) - p.(s))
          in
          let left = Array.sub leaf.entries 0 mid in
          let right = Array.sub leaf.entries mid (n - mid) in
          let right_id = Pager.allocate t.pager in
          write_node t right_id (Leaf { entries = right; next = leaf.next });
          write_node t id (Leaf { entries = left; next = right_id });
          Metrics.incr m_node_splits;
          Split (fst right.(0), right_id)
        end
    | Internal node -> (
        let ci = child_index node.keys key in
        match go node.children.(ci) with
        | No_split -> No_split
        | Split (sep, right_id) ->
            node.keys <- array_insert node.keys ci sep;
            node.children <- array_insert node.children (ci + 1) right_id;
            let img = Internal { keys = node.keys; children = node.children } in
            if node_size t.pager img <= budget then begin
              write_node t id img;
              No_split
            end
            else begin
              (* keys.(mid) moves up: the left half keeps keys [0, mid)
                 and children [0, mid], the right half the rest. *)
              let nk = Array.length node.keys in
              let kp = prefix_sums (Array.map string_bytes node.keys) in
              let cp = prefix_sums (Array.map varint_bytes node.children) in
              let mid =
                closest_cut ~lo:0 ~hi:(nk - 1)
                  ~left:(fun m -> kp.(m) + cp.(m + 1))
                  ~right:(fun m -> kp.(nk) - kp.(m + 1) + cp.(nk + 1) - cp.(m + 1))
              in
              let sep_up = node.keys.(mid) in
              let left_keys = Array.sub node.keys 0 mid in
              let right_keys = Array.sub node.keys (mid + 1) (nk - mid - 1) in
              let left_children = Array.sub node.children 0 (mid + 1) in
              let right_children =
                Array.sub node.children (mid + 1) (Array.length node.children - mid - 1)
              in
              let right_id = Pager.allocate t.pager in
              write_node t right_id
                (Internal { keys = right_keys; children = right_children });
              write_node t id
                (Internal { keys = left_keys; children = left_children });
              Metrics.incr m_node_splits;
              Split (sep_up, right_id)
            end)
  in
  match go t.root with
  | No_split -> ()
  | Split (sep, right_id) ->
      let new_root = Pager.allocate t.pager in
      write_node t new_root
        (Internal { keys = [| sep |]; children = [| t.root; right_id |] });
      t.root <- new_root;
      Pager.set_root t.pager new_root

let remove t key =
  let rec go id =
    match read_node t id with
    | Internal { keys; children } -> go children.(child_index keys key)
    | Leaf leaf ->
        let i = lower_bound leaf.entries key in
        if i < Array.length leaf.entries && fst leaf.entries.(i) = key then begin
          let entries = array_remove leaf.entries i in
          write_node t id (Leaf { entries; next = leaf.next });
          if t.count >= 0 then t.count <- t.count - 1;
          true
        end
        else false
  in
  go t.root

module Cursor = struct
  type cursor = {
    tree : t;
    mutable entries : (string * string) array;
    mutable idx : int;
    mutable next_leaf : int;
  }

  (* Install a decoded leaf, moving on past empty ones. *)
  let rec fill c entries next =
    if Array.length entries = 0 && next >= 0 then load c next
    else begin
      c.entries <- entries;
      c.idx <- 0;
      c.next_leaf <- next
    end

  and load c leaf_id =
    if leaf_id < 0 then fill c [||] (-1)
    else
      match read_node c.tree leaf_id with
      | Leaf { entries; next } -> fill c entries next
      | Internal _ -> failwith "Bptree.Cursor: internal node in leaf chain"

  (* Descend from the root, choosing a child with [pick], and install
     the leaf the descent decoded (reading it once, not twice). *)
  let descend c pick =
    let rec go id =
      match read_node c.tree id with
      | Internal { keys; children } -> go children.(pick keys)
      | Leaf { entries; next } -> fill c entries next
    in
    go c.tree.root

  let seek_first t =
    let c = { tree = t; entries = [||]; idx = 0; next_leaf = -1 } in
    descend c (fun _ -> 0);
    c

  (* Root-to-leaf descent. *)
  let position c key =
    descend c (fun keys -> child_index keys key);
    c.idx <- lower_bound c.entries key;
    (* The sought key may be past this leaf's last entry. *)
    if c.idx >= Array.length c.entries && c.next_leaf >= 0 then load c c.next_leaf

  let seek t key =
    let c = { tree = t; entries = [||]; idx = 0; next_leaf = -1 } in
    position c key;
    c

  (* A leaf holds a contiguous run of the key order, so when
     first <= key <= last the loaded leaf contains key's lower bound:
     the binary search in place is exact, with no node read. *)
  let reseek c key =
    let n = Array.length c.entries in
    if
      n > 0
      && String.compare (fst c.entries.(0)) key <= 0
      && String.compare key (fst c.entries.(n - 1)) <= 0
    then c.idx <- lower_bound c.entries key
    else position c key

  (* [load] replaces [entries] and never writes into it, so the copy
     may share the decoded leaf. *)
  let copy c = { c with idx = c.idx }

  let next c =
    if c.idx < Array.length c.entries then begin
      let e = c.entries.(c.idx) in
      c.idx <- c.idx + 1;
      if c.idx >= Array.length c.entries && c.next_leaf >= 0 then
        load c c.next_leaf;
      Some e
    end
    else None
end

let iter t f =
  let c = Cursor.seek_first t in
  let rec go () =
    match Cursor.next c with
    | Some (k, v) ->
        f k v;
        go ()
    | None -> ()
  in
  go ()

let iter_prefix t ~prefix f =
  let c = Cursor.seek t prefix in
  let plen = String.length prefix in
  let rec go () =
    match Cursor.next c with
    | Some (k, v)
      when String.length k >= plen && String.sub k 0 plen = prefix ->
        f k v;
        go ()
    | Some _ | None -> ()
  in
  go ()

let fold_range t ~low ~high ~init ~f =
  let c = Cursor.seek t low in
  let rec go acc =
    match Cursor.next c with
    | None -> acc
    | Some (k, v) -> (
        match high with
        | Some h when String.compare k h >= 0 -> acc
        | Some _ | None -> go (f acc k v))
  in
  go init

let length t =
  if t.count < 0 then begin
    let n = ref 0 in
    iter t (fun _ _ -> incr n);
    t.count <- !n
  end;
  t.count

let bulk_load pager seq =
  let budget = node_budget pager in
  let fill = budget * 4 / 5 in
  (* Pack entries into leaves left to right, then build each internal
     level from the (first-key, page) list of the level below. *)
  let leaves = ref [] in
  let cur = ref [] and cur_size = ref 8 and last_key = ref None in
  let flush_leaf () =
    if !cur <> [] then begin
      let entries = Array.of_list (List.rev !cur) in
      let id = Pager.allocate pager in
      leaves := (fst entries.(0), id, entries) :: !leaves;
      cur := [];
      cur_size := 8
    end
  in
  let count = ref 0 in
  Seq.iter
    (fun (k, v) ->
      (match !last_key with
      | Some prev when String.compare prev k >= 0 ->
          invalid_arg "Bptree.bulk_load: keys not strictly ascending"
      | Some _ | None -> ());
      last_key := Some k;
      incr count;
      let sz = String.length k + String.length v + 10 in
      if sz > entry_budget pager then
        invalid_arg "Bptree.bulk_load: entry exceeds budget";
      if !cur_size + sz > fill then flush_leaf ();
      cur := (k, v) :: !cur;
      cur_size := !cur_size + sz)
    seq;
  flush_leaf ();
  let t = { pager; root = -1; count = !count } in
  let leaves = List.rev !leaves in
  (* Chain the leaves and write them. *)
  let rec write_chain = function
    | [] -> ()
    | [ (_, id, entries) ] -> write_node t id (Leaf { entries; next = -1 })
    | (_, id, entries) :: ((_, nid, _) :: _ as rest) ->
        write_node t id (Leaf { entries; next = nid });
        write_chain rest
  in
  (match leaves with
  | [] ->
      let root = Pager.allocate pager in
      write_node t root (Leaf { entries = [||]; next = -1 });
      t.root <- root
  | _ -> write_chain leaves);
  if t.root < 0 then begin
    (* Build internal levels bottom-up from (first_key, page_id). *)
    let level =
      ref (List.map (fun (k, id, _) -> (k, id)) leaves)
    in
    while List.length !level > 1 do
      let next_level = ref [] in
      let group = ref [] and group_size = ref 8 in
      let flush_group () =
        match List.rev !group with
        | [] -> ()
        | (k0, c0) :: rest ->
            let keys = Array.of_list (List.map fst rest) in
            let children = Array.of_list (c0 :: List.map snd rest) in
            let id = Pager.allocate pager in
            write_node t id (Internal { keys; children });
            next_level := (k0, id) :: !next_level;
            group := [];
            group_size := 8
      in
      List.iter
        (fun (k, id) ->
          let sz = String.length k + 12 in
          if !group_size + sz > fill && List.length !group >= 2 then flush_group ();
          group := (k, id) :: !group;
          group_size := !group_size + sz)
        !level;
      flush_group ();
      level := List.rev !next_level
    done;
    (match !level with
    | [ (_, id) ] -> t.root <- id
    | _ -> assert false)
  end;
  Pager.set_root pager t.root;
  (* Durable commit point: the freshly packed pages reach the disk
     before the header that publishes the new root. A crash anywhere in
     the load leaves the previous committed epoch intact. *)
  Pager.flush ~sync:true pager;
  t

(* ---- structural verification ---- *)

type verify_report = {
  pages : int;
  entries : int;
  depth : int;
  problems : string list;
}

let max_reported_problems = 32

let verify t =
  let problems = ref [] and n_problems = ref 0 in
  let add p =
    incr n_problems;
    if !n_problems <= max_reported_problems then problems := p :: !problems
  in
  let page_count = Pager.page_count t.pager in
  let visited = Hashtbl.create 256 in
  let leaves = ref [] in
  (* (id, next) in key order *)
  let entries = ref 0 in
  let max_depth = ref 0 in
  let in_bounds key low high =
    (match low with Some l -> String.compare l key <= 0 | None -> true)
    && match high with Some h -> String.compare key h < 0 | None -> true
  in
  let check_sorted id what keys =
    Array.iteri
      (fun i k ->
        if i > 0 && String.compare keys.(i - 1) k >= 0 then
          add
            (Printf.sprintf "page %d: %s out of order at slot %d (%S >= %S)" id
               what i
               keys.(i - 1)
               k))
      keys
  in
  let rec walk id ~low ~high ~depth =
    if id < 0 || id >= page_count then
      add (Printf.sprintf "child link to page %d outside [0,%d)" id page_count)
    else if Hashtbl.mem visited id then
      add (Printf.sprintf "page %d reached twice (cycle or shared subtree)" id)
    else begin
      Hashtbl.add visited id ();
      if depth > !max_depth then max_depth := depth;
      match read_node t id with
      | exception Pager.Corruption { detail; _ } ->
          add (Printf.sprintf "page %d: %s" id detail)
      | Leaf { entries = es; next } ->
          leaves := (id, next) :: !leaves;
          entries := !entries + Array.length es;
          check_sorted id "leaf keys" (Array.map fst es);
          Array.iter
            (fun (k, _) ->
              if not (in_bounds k low high) then
                add
                  (Printf.sprintf "page %d: leaf key %S escapes separator bounds"
                     id k))
            es
      | Internal { keys; children } ->
          if Array.length children <> Array.length keys + 1 then
            add
              (Printf.sprintf "page %d: %d children for %d separators" id
                 (Array.length children) (Array.length keys));
          check_sorted id "separators" keys;
          Array.iter
            (fun k ->
              if not (in_bounds k low high) then
                add
                  (Printf.sprintf "page %d: separator %S escapes bounds" id k))
            keys;
          Array.iteri
            (fun i child ->
              let lo = if i = 0 then low else Some keys.(i - 1) in
              let hi =
                if i < Array.length keys then Some keys.(i) else high
              in
              walk child ~low:lo ~high:hi ~depth:(depth + 1))
            children
    end
  in
  walk t.root ~low:None ~high:None ~depth:1;
  (* The DFS visits leaves left to right; the sibling chain must link
     them in exactly that order and terminate. *)
  let rec check_chain = function
    | [] -> ()
    | [ (id, next) ] ->
        if next <> -1 then
          add (Printf.sprintf "last leaf %d has dangling next %d" id next)
    | (id, next) :: ((id', _) :: _ as rest) ->
        if next <> id' then
          add
            (Printf.sprintf "leaf %d links to %d, expected next leaf %d" id next
               id');
        check_chain rest
  in
  check_chain (List.rev !leaves);
  if !n_problems > max_reported_problems then
    problems :=
      Printf.sprintf "... and %d more problems"
        (!n_problems - max_reported_problems)
      :: !problems;
  {
    pages = Hashtbl.length visited;
    entries = !entries;
    depth = !max_depth;
    problems = List.rev !problems;
  }
