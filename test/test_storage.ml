(* Tests for trex_storage: pager, B+tree, environment. *)

module Pager = Trex_storage.Pager
module Bptree = Trex_storage.Bptree
module Env = Trex_storage.Env
module Prng = Trex_util.Prng

let check = Alcotest.check

let temp_dir () =
  let dir = Filename.temp_file "trex_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

(* ---- pager ---- *)

let test_pager_memory_rw () =
  let p = Pager.create_memory ~page_size:256 () in
  let id0 = Pager.allocate p in
  let id1 = Pager.allocate p in
  check Alcotest.int "ids sequential" 1 id1;
  let buf = Bytes.make 256 'x' in
  Pager.write p id0 buf;
  check Alcotest.string "read back" (Bytes.to_string buf)
    (Bytes.to_string (Pager.read p id0));
  check Alcotest.string "other page zeroed" (String.make 256 '\x00')
    (Bytes.to_string (Pager.read p id1))

let test_pager_out_of_range () =
  let p = Pager.create_memory () in
  Alcotest.check_raises "read unallocated"
    (Invalid_argument "Pager: page id 0 out of range [0,0)") (fun () ->
      ignore (Pager.read p 0))

let test_pager_file_persistence () =
  let dir = temp_dir () in
  let path = Filename.concat dir "test.pg" in
  let p = Pager.create_file ~page_size:512 path in
  let id = Pager.allocate p in
  let buf = Bytes.make 512 'q' in
  Pager.write p id buf;
  Pager.set_root p id;
  Pager.close p;
  let p2 = Pager.open_file path in
  check Alcotest.int "page size restored" 512 (Pager.page_size p2);
  check Alcotest.int "page count restored" 1 (Pager.page_count p2);
  check Alcotest.int "root restored" id (Pager.get_root p2);
  check Alcotest.string "content restored" (Bytes.to_string buf)
    (Bytes.to_string (Pager.read p2 id));
  Pager.close p2

let raises_corruption f =
  try
    ignore (f ());
    false
  with Pager.Corruption _ -> true

let test_pager_open_bad_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "junk" in
  let oc = open_out path in
  (* Long enough to hold both header slots, but garbage. *)
  output_string oc (String.concat "" (List.init 8 (fun _ -> "not a pager file....")));
  close_out oc;
  Alcotest.(check bool) "bad magic is typed Corruption" true
    (raises_corruption (fun () -> Pager.open_file path))

let test_pager_open_truncated_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "short" in
  let oc = open_out path in
  output_string oc "TRExPG02tiny";
  close_out oc;
  Alcotest.(check bool) "truncated header is typed Corruption" true
    (raises_corruption (fun () -> Pager.open_file path));
  Alcotest.(check bool) "recovery refuses it too" true
    (raises_corruption (fun () -> Pager.open_with_recovery path))

let test_pager_open_truncated_pages () =
  let dir = temp_dir () in
  let path = Filename.concat dir "chopped.pg" in
  let p = Pager.create_file ~page_size:256 path in
  let id = Pager.allocate p in
  Pager.write p id (Bytes.make 256 'z');
  Pager.set_root p id;
  Pager.close p;
  (* Chop the page region off: the header says 1 page, the file has 0. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd 140;
  Unix.close fd;
  Alcotest.(check bool) "page_count inconsistent with length" true
    (raises_corruption (fun () -> Pager.open_file path))

let test_pager_open_absurd_header () =
  let dir = temp_dir () in
  let path = Filename.concat dir "absurd.pg" in
  let p = Pager.create_file ~page_size:256 path in
  Pager.close p;
  (* Both slots valid; overwrite both with an absurd page_size but a
     correct checksum, which must still be rejected (typed). *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let slot = Bytes.create 64 in
  ignore (Unix.read fd slot 0 64);
  Bytes.set_int64_be slot 16 (Int64.of_int (2 * 1024 * 1024));
  Bytes.set_int32_be slot 60 (Trex_util.Crc32.bytes slot ~pos:0 ~len:60);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  ignore (Unix.write fd slot 0 64);
  ignore (Unix.write fd slot 0 64);
  Unix.close fd;
  Alcotest.(check bool) "absurd page_size rejected" true
    (raises_corruption (fun () -> Pager.open_file path));
  Alcotest.(check bool) "even with recovery" true
    (raises_corruption (fun () -> Pager.open_with_recovery path))

let test_pager_read_copy_isolated () =
  let run p =
    let id = Pager.allocate p in
    Pager.write p id (Bytes.make (Pager.page_size p) 'a');
    let copy = Pager.read_copy p id in
    Bytes.fill copy 0 (Bytes.length copy) '!';
    check Alcotest.string "mutating the copy leaves the page alone"
      (String.make (Pager.page_size p) 'a')
      (Bytes.to_string (Pager.read p id));
    (* The live buffer from [read] aliases the cache: a later write is
       visible through it, which is exactly why read_copy exists. *)
    let live = Pager.read p id in
    Pager.write p id (Bytes.make (Pager.page_size p) 'b');
    check Alcotest.string "live buffer sees the write"
      (String.make (Pager.page_size p) 'b')
      (Bytes.to_string live);
    check Alcotest.string "earlier copy does not"
      (String.make (Pager.page_size p) '!')
      (Bytes.to_string copy)
  in
  run (Pager.create_memory ~page_size:128 ());
  let dir = temp_dir () in
  let p = Pager.create_file ~page_size:128 (Filename.concat dir "rc.pg") in
  run p;
  Pager.close p

let test_pager_eviction_under_small_cache () =
  let dir = temp_dir () in
  let path = Filename.concat dir "evict.pg" in
  let p = Pager.create_file ~page_size:128 ~cache_pages:4 path in
  let ids = List.init 20 (fun _ -> Pager.allocate p) in
  List.iteri
    (fun i id ->
      let buf = Bytes.make 128 (Char.chr (65 + (i mod 26))) in
      Pager.write p id buf)
    ids;
  (* Read everything back; the cache holds only 4 pages, so most reads
     must hit the backing file and still return the right bytes. *)
  List.iteri
    (fun i id ->
      let expected = String.make 128 (Char.chr (65 + (i mod 26))) in
      check Alcotest.string
        (Printf.sprintf "page %d content" i)
        expected
        (Bytes.to_string (Pager.read p id)))
    ids;
  let stats = Pager.stats p in
  Alcotest.(check bool) "evictions caused physical writes" true
    (stats.physical_writes > 0);
  Alcotest.(check bool) "cache misses recorded" true (stats.cache_misses > 0);
  Pager.close p

(* ---- B+tree ---- *)

let key_of_int i = Printf.sprintf "key-%06d" i

let test_bptree_insert_find () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  for i = 0 to 499 do
    Bptree.insert t ~key:(key_of_int i) ~value:(string_of_int (i * i))
  done;
  for i = 0 to 499 do
    check
      (Alcotest.option Alcotest.string)
      (Printf.sprintf "find %d" i)
      (Some (string_of_int (i * i)))
      (Bptree.find t (key_of_int i))
  done;
  check (Alcotest.option Alcotest.string) "missing" None (Bptree.find t "nope");
  check Alcotest.int "length" 500 (Bptree.length t)

let test_bptree_replace () =
  let t = Bptree.create (Pager.create_memory ()) in
  Bptree.insert t ~key:"k" ~value:"v1";
  Bptree.insert t ~key:"k" ~value:"v2";
  check (Alcotest.option Alcotest.string) "replaced" (Some "v2") (Bptree.find t "k");
  check Alcotest.int "no duplicate" 1 (Bptree.length t)

let test_bptree_remove () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  for i = 0 to 99 do
    Bptree.insert t ~key:(key_of_int i) ~value:"v"
  done;
  Alcotest.(check bool) "removed" true (Bptree.remove t (key_of_int 50));
  Alcotest.(check bool) "already gone" false (Bptree.remove t (key_of_int 50));
  check (Alcotest.option Alcotest.string) "gone" None (Bptree.find t (key_of_int 50));
  check Alcotest.int "length drops" 99 (Bptree.length t)

let test_bptree_cursor_order () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  let keys = List.init 300 key_of_int in
  let shuffled = Array.of_list keys in
  Prng.shuffle (Prng.create 11) shuffled;
  Array.iter (fun k -> Bptree.insert t ~key:k ~value:("v" ^ k)) shuffled;
  let collected = ref [] in
  Bptree.iter t (fun k _ -> collected := k :: !collected);
  check (Alcotest.list Alcotest.string) "in order" keys (List.rev !collected)

let test_bptree_seek_positions_at_lower_bound () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  List.iter
    (fun i -> Bptree.insert t ~key:(key_of_int i) ~value:"v")
    [ 10; 20; 30; 40 ];
  let c = Bptree.Cursor.seek t (key_of_int 25) in
  (match Bptree.Cursor.next c with
  | Some (k, _) -> check Alcotest.string "lower bound" (key_of_int 30) k
  | None -> Alcotest.fail "expected entry");
  let c2 = Bptree.Cursor.seek t (key_of_int 99) in
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "past end" None
    (Bptree.Cursor.next c2)

let test_bptree_iter_prefix () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  List.iter
    (fun k -> Bptree.insert t ~key:k ~value:"v")
    [ "aa1"; "aa2"; "ab1"; "b1"; "aa3" ];
  let out = ref [] in
  Bptree.iter_prefix t ~prefix:"aa" (fun k _ -> out := k :: !out);
  check (Alcotest.list Alcotest.string) "prefix scan" [ "aa1"; "aa2"; "aa3" ]
    (List.rev !out)

let test_bptree_fold_range () =
  let t = Bptree.create (Pager.create_memory ~page_size:512 ()) in
  for i = 0 to 49 do
    Bptree.insert t ~key:(key_of_int i) ~value:"v"
  done;
  let count =
    Bptree.fold_range t ~low:(key_of_int 10)
      ~high:(Some (key_of_int 20))
      ~init:0
      ~f:(fun acc _ _ -> acc + 1)
  in
  check Alcotest.int "half-open range" 10 count;
  let all =
    Bptree.fold_range t ~low:"" ~high:None ~init:0 ~f:(fun acc _ _ -> acc + 1)
  in
  check Alcotest.int "unbounded" 50 all

let test_bptree_bulk_load_equals_inserts () =
  let entries = List.init 400 (fun i -> (key_of_int i, Printf.sprintf "val%d" i)) in
  let bulk = Bptree.bulk_load (Pager.create_memory ~page_size:512 ()) (List.to_seq entries) in
  check Alcotest.int "length" 400 (Bptree.length bulk);
  List.iter
    (fun (k, v) ->
      check (Alcotest.option Alcotest.string) k (Some v) (Bptree.find bulk k))
    entries;
  let out = ref [] in
  Bptree.iter bulk (fun k v -> out := (k, v) :: !out);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "scan order" entries (List.rev !out)

let test_bptree_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Bptree.bulk_load: keys not strictly ascending") (fun () ->
      ignore
        (Bptree.bulk_load
           (Pager.create_memory ())
           (List.to_seq [ ("b", "1"); ("a", "2") ])))

let test_bptree_bulk_load_empty () =
  let t = Bptree.bulk_load (Pager.create_memory ()) Seq.empty in
  check Alcotest.int "empty" 0 (Bptree.length t);
  check (Alcotest.option Alcotest.string) "find" None (Bptree.find t "x")

let test_bptree_oversized_entry_rejected () =
  let pager = Pager.create_memory ~page_size:512 () in
  let t = Bptree.create pager in
  let big = String.make (Bptree.entry_budget pager + 1) 'z' in
  Alcotest.(check bool) "raises" true
    (try
       Bptree.insert t ~key:"k" ~value:big;
       false
     with Invalid_argument _ -> true)

let test_bptree_persistence () =
  let dir = temp_dir () in
  let path = Filename.concat dir "tree.pg" in
  let t = Bptree.create (Pager.create_file ~page_size:512 path) in
  for i = 0 to 199 do
    Bptree.insert t ~key:(key_of_int i) ~value:(string_of_int i)
  done;
  Pager.close (Bptree.pager t);
  let t2 = Bptree.attach (Pager.open_file path) in
  check Alcotest.int "length after reopen" 200 (Bptree.length t2);
  check (Alcotest.option Alcotest.string) "value survives" (Some "123")
    (Bptree.find t2 (key_of_int 123));
  Pager.close (Bptree.pager t2)

(* Model-based property: a B+tree behaves like a sorted string map
   under random inserts, removes and lookups. *)
let prop_bptree_model =
  let open QCheck in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun k v -> `Insert (k, v)) (string_size (1 -- 8)) (string_size (0 -- 12));
          map (fun k -> `Remove k) (string_size (1 -- 8));
          map (fun k -> `Find k) (string_size (1 -- 8));
        ])
  in
  let ops_arb =
    make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Insert (k, v) -> Printf.sprintf "ins(%S,%S)" k v
               | `Remove k -> Printf.sprintf "del(%S)" k
               | `Find k -> Printf.sprintf "find(%S)" k)
             ops))
      Gen.(list_size (0 -- 200) op_gen)
  in
  Test.make ~name:"bptree matches sorted-map model" ~count:60 ops_arb (fun ops ->
      let t = Bptree.create (Pager.create_memory ~page_size:256 ()) in
      let model = Hashtbl.create 16 in
      List.for_all
        (function
          | `Insert (k, v) ->
              Bptree.insert t ~key:k ~value:v;
              Hashtbl.replace model k v;
              true
          | `Remove k ->
              let expected = Hashtbl.mem model k in
              Hashtbl.remove model k;
              Bptree.remove t k = expected
          | `Find k -> Bptree.find t k = Hashtbl.find_opt model k)
        ops
      &&
      (* Final scan must equal the sorted model. *)
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      let actual = ref [] in
      Bptree.iter t (fun k v -> actual := (k, v) :: !actual);
      List.rev !actual = expected)

(* A leaf page whose entry count is a malformed varint — overlong (a
   redundant zero group) or longer than 63 bits — is corruption like a
   truncated one: [find] raises the typed exception and [verify] lists
   the page instead of raising. *)
let test_bptree_malformed_node_is_corruption () =
  List.iter
    (fun encoding ->
      let pager = Pager.create_memory ~page_size:256 () in
      let t = Bptree.create pager in
      Bptree.insert t ~key:"k" ~value:"v";
      let page = Bytes.make 256 '\x00' in
      Bytes.blit_string encoding 0 page 0 (String.length encoding);
      Pager.write pager (Pager.get_root pager) page;
      Alcotest.(check bool) "find raises Corruption" true
        (raises_corruption (fun () -> Bptree.find t "k"));
      let report = Bptree.verify t in
      Alcotest.(check bool) "verify reports the page" true
        (List.exists
           (fun p -> String.starts_with ~prefix:"page " p)
           report.problems))
    [ "L\x80\x00"; "L" ^ String.make 10 '\xff' ]

(* Random inserts, with entries from [entry rng ~budget], and removals
   of a live key on a quarter of the steps. Returns the tree and its
   model. *)
let random_tree rng ~page_size ~steps ~entry =
  let pager = Pager.create_memory ~page_size () in
  let t = Bptree.create pager in
  let model = Hashtbl.create 64 in
  for _ = 1 to steps do
    if Hashtbl.length model > 0 && Prng.int rng 4 = 0 then begin
      let live = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
      let k = List.nth live (Prng.int rng (List.length live)) in
      Hashtbl.remove model k;
      ignore (Bptree.remove t k)
    end
    else begin
      let key, value = entry rng ~budget:(Bptree.entry_budget pager) in
      Bptree.insert t ~key ~value;
      Hashtbl.replace model key value
    end
  done;
  (t, model)

(* An entry of [size] bytes in total whose key starts with [first]. *)
let sized_entry rng ~first ~size =
  let klen = 1 + Prng.int rng size in
  let key =
    String.init klen (fun i -> if i = 0 then first else Char.chr (97 + Prng.int rng 26))
  in
  (key, String.make (size - klen) 'v')

let sorted_bindings model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare

(* Entries of any size in [1, entry_budget], with the size tied to the
   key's first byte so small and large entries cluster in key order:
   a node's halves can then differ several-fold in bytes at equal
   counts. Splitting by bytes keeps every node within its page, where a
   count midpoint overflowed it. *)
let prop_bptree_mixed_sizes =
  QCheck.Test.make ~name:"bptree splits by bytes under mixed entry sizes"
    ~count:150 QCheck.int (fun seed ->
      let rng = Prng.create seed in
      let entry rng ~budget =
        match Prng.int rng 3 with
        | 0 -> sized_entry rng ~first:'a' ~size:(1 + Prng.int rng 4)
        | 1 -> sized_entry rng ~first:'b' ~size:(budget - Prng.int rng (budget / 4))
        | _ -> sized_entry rng ~first:'c' ~size:(1 + Prng.int rng budget)
      in
      let t, model = random_tree rng ~page_size:256 ~steps:300 ~entry in
      let actual = ref [] in
      Bptree.iter t (fun k v -> actual := (k, v) :: !actual);
      (Bptree.verify t).problems = [] && List.rev !actual = sorted_bindings model)

(* [reseek] must leave a cursor exactly where a fresh [seek] would, after
   any mix of reseeks and nexts: probes include live keys (among them
   every leaf's first and last), keys just past a live key (between
   leaves), absent keys and keys past the last leaf. Removals leave
   under-full and empty leaves in the chain. *)
let prop_cursor_reseek_matches_seek =
  QCheck.Test.make ~name:"cursor reseek then next matches a fresh seek"
    ~count:150 QCheck.int (fun seed ->
      let rng = Prng.create seed in
      let t, model =
        random_tree rng ~page_size:256 ~steps:(Prng.int rng 400)
          ~entry:(fun rng ~budget:_ ->
            sized_entry rng ~first:'m' ~size:(1 + Prng.int rng 12))
      in
      let live = Array.of_list (List.map fst (sorted_bindings model)) in
      let probe () =
        match Prng.int rng 6 with
        | (0 | 1 | 2) when live <> [||] -> Prng.pick rng live
        | 3 when live <> [||] -> Prng.pick rng live ^ "\x00"
        | 4 -> if Prng.bool rng then "\xff" else "a"
        | _ -> "m" ^ String.init (Prng.int rng 3) (fun _ -> Char.chr (97 + Prng.int rng 26))
      in
      let c = Bptree.Cursor.seek_first t in
      let fresh = ref (Bptree.Cursor.seek_first t) in
      List.for_all
        (fun _ ->
          if Prng.int rng 3 > 0 then begin
            let k = probe () in
            Bptree.Cursor.reseek c k;
            fresh := Bptree.Cursor.seek t k
          end;
          Bptree.Cursor.next c = Bptree.Cursor.next !fresh)
        (List.init 200 Fun.id))

(* After [copy] the two cursors move independently: while one of them
   runs nexts across leaves and reseeks anywhere, the other still
   yields exactly what a fresh cursor at the copy point yields. *)
let prop_cursor_copy_independent =
  QCheck.Test.make ~name:"cursor copy moves independently of its source"
    ~count:150 QCheck.int (fun seed ->
      let rng = Prng.create seed in
      let t, model =
        random_tree rng ~page_size:256 ~steps:(Prng.int rng 400)
          ~entry:(fun rng ~budget:_ ->
            sized_entry rng ~first:'m' ~size:(1 + Prng.int rng 12))
      in
      let live = Array.of_list (List.map fst (sorted_bindings model)) in
      let probe () =
        if live <> [||] && Prng.bool rng then Prng.pick rng live
        else "m" ^ String.init (Prng.int rng 3) (fun _ -> Char.chr (97 + Prng.int rng 26))
      in
      let start = probe () and skip = Prng.int rng 8 in
      let positioned () =
        let c = Bptree.Cursor.seek t start in
        for _ = 1 to skip do ignore (Bptree.Cursor.next c) done;
        c
      in
      let drain c =
        let rec go acc =
          match Bptree.Cursor.next c with Some e -> go (e :: acc) | None -> List.rev acc
        in
        go []
      in
      let expected = drain (positioned ()) in
      let source = positioned () in
      let copy = Bptree.Cursor.copy source in
      let moved, kept = if Prng.bool rng then (source, copy) else (copy, source) in
      let seen = ref [] in
      for _ = 1 to Prng.int rng 60 do
        match Prng.int rng 3 with
        | 0 -> Option.iter (fun e -> seen := e :: !seen) (Bptree.Cursor.next kept)
        | 1 -> ignore (Bptree.Cursor.next moved)
        | _ -> Bptree.Cursor.reseek moved (probe ())
      done;
      List.rev_append !seen (drain kept) = expected)

(* ---- environment ---- *)

let test_env_tables () =
  let env = Env.in_memory () in
  let t1 = Env.table env "alpha" in
  Bptree.insert t1 ~key:"k" ~value:"v";
  let t1' = Env.table env "alpha" in
  check (Alcotest.option Alcotest.string) "same table" (Some "v")
    (Bptree.find t1' "k");
  Alcotest.(check bool) "has" true (Env.has_table env "alpha");
  Alcotest.(check bool) "has not" false (Env.has_table env "beta");
  check (Alcotest.list Alcotest.string) "names" [ "alpha" ] (Env.table_names env)

let test_env_bad_name () =
  let env = Env.in_memory () in
  Alcotest.check_raises "bad name" (Invalid_argument "Env.table: bad name a/b")
    (fun () -> ignore (Env.table env "a/b"))

let test_env_drop () =
  let env = Env.in_memory () in
  let t = Env.table env "victim" in
  Bptree.insert t ~key:"k" ~value:"v";
  Env.drop_table env "victim";
  let t2 = Env.table env "victim" in
  check (Alcotest.option Alcotest.string) "fresh after drop" None (Bptree.find t2 "k")

let test_env_compact_reclaims_space () =
  let run_on env =
    let t = Env.table env "fat" in
    for i = 0 to 999 do
      Bptree.insert t ~key:(key_of_int i) ~value:(String.make 64 'x')
    done;
    for i = 0 to 899 do
      ignore (Bptree.remove t (key_of_int i))
    done;
    let before = Env.table_bytes env "fat" in
    Env.compact_table env "fat";
    let t = Env.table env "fat" in
    Alcotest.(check bool) "smaller" true (Env.table_bytes env "fat" < before);
    check Alcotest.int "entries survive" 100 (Bptree.length t);
    check
      (Alcotest.option Alcotest.string)
      "value survives"
      (Some (String.make 64 'x'))
      (Bptree.find t (key_of_int 950))
  in
  run_on (Env.in_memory ~page_size:512 ());
  let dir = temp_dir () in
  let env = Env.on_disk ~page_size:512 dir in
  run_on env;
  (* Compacted table persists across close/reopen. *)
  Env.close env;
  let env2 = Env.on_disk dir in
  check Alcotest.int "persists" 100 (Bptree.length (Env.table env2 "fat"));
  Env.close env2

let test_env_compact_missing_table_noop () =
  let env = Env.in_memory () in
  Env.compact_table env "ghost";
  Alcotest.(check bool) "still absent" false (Env.has_table env "ghost")

let test_env_on_disk_roundtrip () =
  let dir = temp_dir () in
  let env = Env.on_disk dir in
  let t = Env.table env "data" in
  Bptree.insert t ~key:"hello" ~value:"world";
  Env.close env;
  let env2 = Env.on_disk dir in
  let t2 = Env.table env2 "data" in
  check (Alcotest.option Alcotest.string) "reattached" (Some "world")
    (Bptree.find t2 "hello");
  Alcotest.(check bool) "bytes positive" true (Env.table_bytes env2 "data" > 0);
  Alcotest.(check bool) "total counts it" true
    (Env.total_bytes env2 >= Env.table_bytes env2 "data");
  Env.close env2

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trex_storage"
    [
      ( "pager",
        [
          Alcotest.test_case "memory read/write" `Quick test_pager_memory_rw;
          Alcotest.test_case "out of range" `Quick test_pager_out_of_range;
          Alcotest.test_case "file persistence" `Quick test_pager_file_persistence;
          Alcotest.test_case "open bad file" `Quick test_pager_open_bad_file;
          Alcotest.test_case "open truncated file" `Quick
            test_pager_open_truncated_file;
          Alcotest.test_case "open truncated pages" `Quick
            test_pager_open_truncated_pages;
          Alcotest.test_case "open absurd header" `Quick
            test_pager_open_absurd_header;
          Alcotest.test_case "read_copy isolation" `Quick
            test_pager_read_copy_isolated;
          Alcotest.test_case "eviction with small cache" `Quick
            test_pager_eviction_under_small_cache;
        ] );
      ( "bptree",
        [
          Alcotest.test_case "insert/find" `Quick test_bptree_insert_find;
          Alcotest.test_case "replace" `Quick test_bptree_replace;
          Alcotest.test_case "remove" `Quick test_bptree_remove;
          Alcotest.test_case "cursor order" `Quick test_bptree_cursor_order;
          Alcotest.test_case "seek lower bound" `Quick
            test_bptree_seek_positions_at_lower_bound;
          Alcotest.test_case "iter_prefix" `Quick test_bptree_iter_prefix;
          Alcotest.test_case "fold_range" `Quick test_bptree_fold_range;
          Alcotest.test_case "bulk load equals inserts" `Quick
            test_bptree_bulk_load_equals_inserts;
          Alcotest.test_case "bulk load rejects unsorted" `Quick
            test_bptree_bulk_load_rejects_unsorted;
          Alcotest.test_case "bulk load empty" `Quick test_bptree_bulk_load_empty;
          Alcotest.test_case "oversized entry rejected" `Quick
            test_bptree_oversized_entry_rejected;
          Alcotest.test_case "persistence" `Quick test_bptree_persistence;
          qtest prop_bptree_model;
          Alcotest.test_case "malformed node is corruption" `Quick
            test_bptree_malformed_node_is_corruption;
          qtest prop_bptree_mixed_sizes;
          qtest prop_cursor_reseek_matches_seek;
          qtest prop_cursor_copy_independent;
        ] );
      ( "env",
        [
          Alcotest.test_case "tables" `Quick test_env_tables;
          Alcotest.test_case "bad name" `Quick test_env_bad_name;
          Alcotest.test_case "drop" `Quick test_env_drop;
          Alcotest.test_case "compact reclaims space" `Quick
            test_env_compact_reclaims_space;
          Alcotest.test_case "compact missing table" `Quick
            test_env_compact_missing_table_noop;
          Alcotest.test_case "on-disk roundtrip" `Quick test_env_on_disk_roundtrip;
        ] );
    ]
