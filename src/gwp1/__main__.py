from gwp1.cli import main
raise SystemExit(main())
