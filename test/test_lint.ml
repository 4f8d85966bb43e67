(* The exemption-file grammar: hand-written cases for each rule-spec
   shape, and a qcheck property pinning that [Config.parse] and
   [Config.to_string] round-trip exactly — lint.exempt and
   flow.baseline workflows edit these files programmatically, so the
   grammar must not drift. *)

module Config = Dp_lint.Config

let parse_ok s =
  match Config.parse s with
  | Ok t -> t
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

(* --- unit cases ---------------------------------------------------- *)

let test_spec_shapes () =
  let t =
    parse_ok
      "# comment\n\
       * lint_corpus/\n\
       R7 bad_r7.ml\n\
       F1-F3 flow_corpus/\n\
       R2-R8 lib/engine/\n"
  in
  Alcotest.(check int) "entries" 4 (List.length t);
  Alcotest.(check bool) "any matches every rule" true
    (Config.exempt t ~rule:"R9" ~file:"test/lint_corpus/engine/bad.ml");
  Alcotest.(check bool) "one matches itself" true
    (Config.exempt t ~rule:"R7" ~file:"x/bad_r7.ml");
  Alcotest.(check bool) "one does not match siblings" false
    (Config.exempt t ~rule:"R6" ~file:"x/bad_r6.ml");
  Alcotest.(check bool) "range matches interior" true
    (Config.exempt t ~rule:"F2" ~file:"test/flow_corpus/x.ml");
  Alcotest.(check bool) "range matches endpoints" true
    (Config.exempt t ~rule:"F3" ~file:"test/flow_corpus/x.ml");
  Alcotest.(check bool) "range is family-scoped" false
    (Config.exempt t ~rule:"F3" ~file:"lib/engine/x.ml");
  Alcotest.(check bool) "range excludes outside" false
    (Config.exempt t ~rule:"R9" ~file:"lib/engine/x.ml")

let test_rejects () =
  let bad s =
    match Config.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "R7\n";
  bad "R7 \n";
  bad "R2-F3 lib/\n";
  bad "R8-R2 lib/\n";
  bad "R-R2 lib/\n"

(* --- round-trip property ------------------------------------------- *)

let gen_entry =
  let open QCheck.Gen in
  let family = oneofl [ "R"; "F" ] in
  let idx = int_range 1 99 in
  let spec =
    frequency
      [
        (1, return Config.Any);
        (3, map2 (fun f i -> Config.One (Printf.sprintf "%s%d" f i)) family idx);
        ( 3,
          map3
            (fun f a b ->
              let lo = min a b and hi = max a b in
              Config.Range { prefix = f; lo; hi })
            family idx idx );
      ]
  in
  (* path fragments as they appear in real exemption files: no spaces,
     no newlines, nonempty *)
  let fragment =
    let frag_char =
      oneofl
        [ 'a'; 'b'; 'z'; 'A'; 'Z'; '0'; '9'; '/'; '.'; '_'; '-'; '#' ]
    in
    map (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 24) frag_char)
  in
  map2 (fun spec fragment -> { Config.spec; fragment }) spec fragment

let arb_config =
  QCheck.make
    ~print:(fun t -> Printf.sprintf "%S" (Config.to_string t))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 12) gen_entry)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"exemption file round-trips" ~count:500 arb_config
      (fun t ->
        match Config.parse (Config.to_string t) with
        | Ok t' -> t' = t
        | Error _ -> false);
  ]

(* The one whole-file reader of lint and flow: a read that fails after
   the open (a directory opens, then refuses to be read) must still
   close its channel. *)
let test_read_file_closes () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let dir = Filename.get_temp_dir_name () in
    let before = fds () in
    for _ = 1 to 8 do
      match Dp_lint.Driver.read_file dir with
      | _ -> Alcotest.fail "reading a directory succeeded"
      | exception (Sys_error _ | End_of_file) -> ()
    done;
    Alcotest.(check int) "no descriptor leaked" before (fds ())
  end;
  let path = Filename.temp_file "dpkit_read" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "let x = 1\n");
      Alcotest.(check string) "contents" "let x = 1\n"
        (Dp_lint.Driver.read_file path))

let () =
  Alcotest.run "dp_lint"
    [
      ( "config",
        [
          Alcotest.test_case "spec shapes" `Quick test_spec_shapes;
          Alcotest.test_case "rejects" `Quick test_rejects;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "reader",
        [ Alcotest.test_case "closes on every path" `Quick test_read_file_closes ] );
    ]
